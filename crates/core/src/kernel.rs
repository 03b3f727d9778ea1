//! The batch encode kernels: `f64` slices → limb partials.
//!
//! Two paths, both bitwise identical to per-value Listing-1 deposits:
//!
//! * the **lane kernel**, [`encode_f64_batch`], behind every slice
//!   shorter than [`BINS_MIN_LEN`] ([`BatchAcc::extend_f64`] routes on
//!   it) and behind [`encode_f64_le_batch`], the same kernel fed raw
//!   little-endian wire bytes (the service's 256-value deposits and WAL
//!   replay);
//! * the **exponent-indexed bins** (Neal's large superaccumulator),
//!   behind every longer slice through [`BatchAcc::extend_f64`]:
//!   `Hp::sum_f64_slice`, each worker of `Hp::par_sum_f64_slice`, and
//!   `AtomicHp::add_batch`. See the last section below.
//!
//! The lane kernel replaces the per-value Listing-1 float loop with
//! integer bit manipulation over whole chunks, and retires [`LANES`]
//! values per step instead of one:
//!
//! * **Lane-struct extraction.** Each group of [`LANES`] summands is
//!   split into fixed-size lane arrays (`[u64; LANES]` bit patterns,
//!   `[u32; LANES]` raw exponents, `[u32; LANES]` dispatch words) with
//!   no data dependencies between lanes, so the compiler is free to
//!   schedule the lanes as parallel register chains (and, where the
//!   target has them, vector registers — the arrays are exactly the
//!   u64x4 shape the autovectorizer recognizes).
//! * **One fast/slow branch per group, not per value.** The group's
//!   lane-wise maximum raw exponent is compared against the format
//!   threshold once; only a group containing a non-finite or
//!   out-of-range member takes the `#[cold]` mixed path (`mixed_group`),
//!   which re-screens per value and routes offenders through the scalar
//!   Listing-1 reference encode.
//! * **Sharded scatter banks.** Each lane deposits into its own
//!   32-slot `i128` carry-save bank. Two values in *different* lanes
//!   can therefore never collide on a slot, which removes the
//!   store-to-load forwarding chain that serializes a single shared
//!   bank when consecutive summands land on the same limb (the common
//!   case: real datasets cluster in a few binades). The banks are
//!   folded lane-wise into per-limb partials once per chunk — integer
//!   reassociation only, so exactness is untouched (see below).
//! * **Sign handling is branchless XOR/mask on the truncated
//!   mantissa**, not `if neg { negate }`: `(mt ^ m) − m` with `m` the
//!   all-ones sign mask negates in two u64 ops, *before* the word
//!   split. The split then deposits the value's true two's-complement
//!   word pair — the low word unsigned (`v mod 2^64`), the high word an
//!   arithmetic shift (`⌊v / 2^64⌋`, negative for negative values) — so
//!   `hi · 2^64 + lo = v` exactly and no per-chunk sign completion is
//!   needed at all; the fold normalizes the (possibly negative) slot
//!   sums into canonical non-negative partials with one borrow pass.
//!   Signed zeros cost nothing special: `-0.0` deposits two zero words.
//! * **Per-exponent limb-index dispatch is precomputed** — once per
//!   `(N, K)` monomorphization at *compile time*: 2048-entry tables
//!   indexed by the raw `f64` exponent field hold the sub-resolution
//!   truncation shift and target limb index (one `u32`) and the
//!   intra-limb position as a power-of-two *multiplier* (one `u64`), so
//!   the only variable shift left on the fast path is the truncation —
//!   the limb positioning is a widening multiply, which does not
//!   serialize on the shift-count register the way baseline x86-64
//!   variable shifts do. The masked index (`raw & 0x7ff`) and masked
//!   scatter slots keep the whole loop free of bounds-check branches in
//!   safe Rust (this crate is `#![forbid(unsafe_code)]`).
//!
//! # Why exactness is lane-order-invariant
//!
//! Every deposit into a scatter bank is an exact `i128` integer
//! addition, and the chunk fold sums the lanes' banks slot-wise before
//! handing the per-limb partials to `BatchAcc::absorb_partials`.
//! Re-distributing values across lanes (or changing [`LANES`] itself)
//! only reassociates those integer additions — no rounding, no
//! truncation, no wrap below the `2^73` partial bound — so the folded
//! partials, and therefore the final limbs, are bit-identical for every
//! lane assignment. This is the same argument that makes the HP method
//! order-invariant, applied one level down.
//!
//! # Bitwise equality with the scalar path
//!
//! Both paths maintain the exact value of the deposited multiset modulo
//! `2^(64·N)` in the accumulator's `lanes + carries` representation, and
//! [`BatchAcc::propagate`] maps any such representation of a value to
//! the same canonical limbs. In-range finite values take the integer
//! fast path above, which computes precisely the truncating encode of
//! Listing 1 (`mantissa · 2^(exp + 64·K)` with sub-resolution bits
//! shifted out toward zero). Everything else — non-finite values and
//! magnitudes at or beyond the format range, recognized by a *single*
//! compare of the raw exponent field against a threshold
//! (`Tables::THRESH`) — falls back to the scalar [`encode_listing1`] for
//! that value, so even the debug assertions and the release-mode
//! saturation garbage are identical to the per-value path. The
//! `encode_fast_path_matches_reference` proptest, the every-length tail
//! suite, and the golden-vector suite pin this bit for bit.
//!
//! # Exponent-indexed bins for long slices
//!
//! The lane kernel shifts every value into place. The bins shift once
//! per exponent instead: each value's mantissa, truncated by a
//! per-exponent mask (`BIN_MASK`, the bits `dispatch_entry` keeps) but
//! not shifted, is added into a `u64` bin picked by lane, sign and raw
//! exponent mod 512. Every `BIN_FLUSH` adds per lane (no bin can wrap:
//! `2048 · (2^53 − 1) < 2^64`), the touched bins are drained: per
//! exponent, the lanes' positive bins summed in `u128` less the negative
//! ones is shifted by the exponent's DISPATCH/MULT entry into the lane
//! kernel's banks, which fold into the accumulator as before. Truncating
//! each mantissa before the sum, then shifting the sum right by the same
//! drop, is exact because the mask already cleared those bits; the rest
//! is integer reassociation, as above. The bins take 32 KiB of stack
//! (4 lanes × 2 signs × 512 × 8 B); a per-call clear and the final flush
//! are why short slices stay on the lane kernel. The same `THRESH`
//! screen sends non-finite and out-of-range groups to the `#[cold]`
//! mixed path. Formats whose live window is wider than 512 exponents
//! (`N > 8`) keep the lane kernel at every length.

use crate::batch::BatchAcc;
use crate::convert::encode_listing1;
use oisum_bignum::codec::split_f64_bits;

/// Values encoded per kernel invocation (and the flush granularity of
/// the chunk partials).
///
/// Large enough to amortize the per-chunk partial fold (`N` lane
/// updates per chunk instead of per value) and small enough that the
/// scatter banks plus partials stay in L1 and the `i128` partials keep
/// ~55 bits of headroom. Doubling it measures flat on the microbench;
/// halving it costs ~3% (more folds per value).
pub const ENCODE_CHUNK: usize = 256;

/// Values retired per kernel step: the width of the lane structs and
/// the number of scatter-bank shards.
///
/// Four lanes give each scatter slot four independent dependency
/// chains (one per shard) while keeping the banks at 2 KiB total —
/// comfortably L1-resident next to the chunk being read. Eight lanes
/// measured within noise of four on the reference machine (the fold
/// cost grows linearly with the shard count); two measurably slower.
pub const LANES: usize = 4;

/// Scatter bank size: slot `j + 1` holds limb `j`'s partial, slot 0
/// swallows the (always-zero for in-range values) word above the top
/// limb. 32 slots let every index be masked with `& 0x1f`, which the
/// compiler proves in-bounds — no bounds-check branches, no `unsafe`.
const SCATTER_SLOTS: usize = 32;

/// Slices at least this long take the exponent-indexed bins
/// ([`BatchAcc::extend_f64`] routes on it); shorter ones take the lane
/// kernel. A bins call pays a fixed 32 KiB clear and a final flush that
/// the lane kernel does not, so below this length it is the slower of
/// the two (the measured crossover, DESIGN.md §15.6).
pub const BINS_MIN_LEN: usize = 2048;

/// Adds each lane makes into its bins between flushes. A truncated
/// mantissa is below `2^53` and `2048 · (2^53 − 1) < 2^64`, so no `u64`
/// bin can wrap, however the values fall.
const BIN_FLUSH: usize = 2048;

/// Bins per sign and lane. Raw exponents fold onto them mod 512, which
/// keeps every live exponent of a window at most 512 wide in a bin of
/// its own; exponents below the window fold onto live bins too, but
/// their masked mantissa is 0.
const BINS_PER_SIGN: usize = 512;

/// Bins covered by one bit of the touched-group bitmap (64 bits over
/// both signs' bins).
const BIN_GROUP: usize = 2 * BINS_PER_SIGN / 64;

/// Per-lane sharded scatter state: `bank[l]` receives only lane `l`'s
/// deposits, so no two lanes ever contend on a slot (the
/// "carry-conflict" a single shared bank would serialize on).
///
/// Allocated once per batch, not per chunk: [`fold_banks`] drains and
/// re-zeroes exactly the slots a chunk can touch (`0..=N`, a few
/// hundred bytes) instead of a full-array clear per 256 values.
struct LaneBanks {
    bank: [[i128; SCATTER_SLOTS]; LANES],
}

impl LaneBanks {
    #[inline]
    fn new() -> Self {
        LaneBanks { bank: [[0; SCATTER_SLOTS]; LANES] }
    }
}

/// Compile-time per-`(N, K)` dispatch tables.
struct Tables<const N: usize, const K: usize>;

impl<const N: usize, const K: usize> Tables<N, K> {
    /// First raw exponent field value routed to the scalar fallback.
    ///
    /// A normal `f64` with raw exponent `e` has magnitude in
    /// `[2^(e−1023), 2^(e−1022))`; every value below the threshold is
    /// finite and strictly inside the format range
    /// `|x| < 2^(64·(N−K)−1)`, and every value at or above it (including
    /// `e = 2047`, NaN/∞) is not. One unsigned compare therefore
    /// separates the branchless fast path from the exact scalar path.
    const THRESH: u32 = slow_threshold(N, K);

    /// `raw exponent → (drop, low scatter slot)`, packed as
    /// `drop | lo_slot << 8`. Entries at or above [`Self::THRESH`] are
    /// never read.
    const DISPATCH: [u32; 2048] = dispatch_table(N, K);

    /// `raw exponent → 2^intra`, the intra-limb positioning as a
    /// multiplier: one widening multiply replaces a variable left shift
    /// *and* the two-shift high-word extraction (variable shifts
    /// serialize on the shift-count register on baseline x86-64; a
    /// multiply does not). Fallback and `drop > 0` entries hold 1.
    const MULT: [u64; 2048] = mult_table(N, K);

    /// `raw exponent → kept mantissa bits` for the bins: the implicit
    /// bit (absent at raw 0) and every fraction bit at or above the
    /// resolution. The bits [`dispatch_entry`] drops are cleared, so
    /// `(bits | 2^52) & BIN_MASK[raw]` is the truncated mantissa still
    /// in place, `(m >> drop) << drop`. Entries at or above
    /// [`Self::THRESH`] are 0 and never read.
    const BIN_MASK: [u64; 2048] = bin_mask_table(N, K);

    /// The first raw exponent whose truncated mantissa can be nonzero:
    /// the live window of the bins is `[BIN_LO, THRESH)`.
    const BIN_LO: usize = bin_lo(N, K);

    /// Whether the live window fits [`BINS_PER_SIGN`] bins, which holds
    /// for every format with `N ≤ 8` (the window is `64·N − 1` wide at
    /// most). Wider formats keep the lane kernel at every length.
    const BINS_FIT: bool = Self::THRESH as usize - Self::BIN_LO <= BINS_PER_SIGN;
}

const fn slow_threshold(n: usize, k: usize) -> u32 {
    // The scatter bank caps N at 31 (5-bit slot indices); the format
    // itself (HpFixed::format) already requires N ≥ 1, K ≤ N, N−K ≤ 16.
    assert!(n >= 1 && k <= n && n - k <= 16 && n <= 31);
    let t = 64 * (n as i64 - k as i64) + 1022;
    if t > 2047 {
        2047
    } else {
        t as u32
    }
}

/// `raw exponent → (drop, intra-limb shift, target limb index)` for
/// in-range entries, shared by the two table builders.
const fn dispatch_entry(raw: usize, k: usize) -> (u32, usize, u32) {
    // Value = mantissa · 2^exp; in units of the resolution
    // (2^(−64·K)) the mantissa's bit 0 sits at `shift`.
    let exp = (if raw == 0 { 1 } else { raw as i64 }) - 1075;
    let shift = exp + 64 * k as i64;
    if shift < 0 {
        // Sub-resolution bits truncate toward zero. The mantissa
        // is ≤ 53 bits, so any drop ≥ 54 zeroes it; clamping to
        // 63 keeps the u64 shift in range.
        let d = -shift;
        ((if d > 63 { 63 } else { d }) as u32, 0usize, 0u32)
    } else {
        (0u32, (shift / 64) as usize, (shift % 64) as u32)
    }
}

const fn dispatch_table(n: usize, k: usize) -> [u32; 2048] {
    let thresh = slow_threshold(n, k);
    let mut table = [0u32; 2048];
    let mut raw = 0usize;
    while raw < 2048 {
        if (raw as u32) < thresh {
            let (drop, li, _) = dispatch_entry(raw, k);
            // In-range values always land inside the limb bank (at the
            // range boundary li = n − 1 exactly); const evaluation turns
            // a violation into a compile error.
            assert!(li < n);
            let lo_slot = (n - li) as u32;
            table[raw] = drop | (lo_slot << 8);
        }
        raw += 1;
    }
    table
}

const fn mult_table(n: usize, k: usize) -> [u64; 2048] {
    let thresh = slow_threshold(n, k);
    let mut table = [1u64; 2048];
    let mut raw = 0usize;
    while raw < 2048 {
        if (raw as u32) < thresh {
            let (_, _, intra) = dispatch_entry(raw, k);
            table[raw] = 1u64 << intra;
        }
        raw += 1;
    }
    let _ = n;
    table
}

const fn bin_mask_table(n: usize, k: usize) -> [u64; 2048] {
    let thresh = slow_threshold(n, k);
    let mut table = [0u64; 2048];
    let mut raw = 0usize;
    while raw < 2048 {
        if (raw as u32) < thresh {
            let (drop, _, _) = dispatch_entry(raw, k);
            let mantissa = if raw == 0 { (1u64 << 52) - 1 } else { (1u64 << 53) - 1 };
            // drop ≤ 63, and a drop ≥ 53 clears the whole mantissa.
            table[raw] = (mantissa >> drop) << drop;
        }
        raw += 1;
    }
    table
}

const fn bin_lo(n: usize, k: usize) -> usize {
    let mask = bin_mask_table(n, k);
    let mut raw = 0usize;
    while mask[raw] == 0 {
        raw += 1;
    }
    raw
}

/// A one-line summary of the lane shape this build compiled to, for
/// benchmark reports: chunk/lane constants plus the `target_feature`
/// set the kernel's autovectorization evidence depends on. Recorded in
/// `BENCH_kernels.json` so perf-trajectory entries are comparable
/// across machines.
pub fn lane_evidence() -> String {
    let features: &[(&str, bool)] = &[
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features.iter().filter(|(_, e)| *e).map(|(n, _)| *n).collect();
    format!(
        "lanes={LANES} chunk={ENCODE_CHUNK} slots={SCATTER_SLOTS} target_features=[{}]",
        on.join(",")
    )
}

/// Encodes `xs` with the multi-lane chunk kernel and deposits the
/// contributions into `acc`, bitwise-identically to
/// `for &x in xs { acc.encode_deposit(x) }` for **every** `f64` input
/// (in-range, boundary, subnormal, signed-zero — and identical
/// debug-assert/saturation behavior beyond the range).
///
/// The caller owns the same range precondition as
/// [`HpFixed::sum_f64_slice`](crate::fixed::HpFixed::sum_f64_slice).
#[inline]
pub fn encode_f64_batch<const N: usize, const K: usize>(acc: &mut BatchAcc<N, K>, xs: &[f64]) {
    let mut banks = LaneBanks::new();
    for chunk in xs.chunks(ENCODE_CHUNK) {
        encode_chunk(acc, &mut banks, chunk);
    }
}

/// [`encode_f64_batch`] fed raw little-endian `f64` bytes — the exact
/// layout of the service's binary Add payload — so wire ingest reaches
/// the lane kernel without an intermediate per-value iterator. The
/// byte→`f64` chunk copy below compiles to a straight `memcpy` on
/// little-endian targets (and a byte-swapping vector loop elsewhere);
/// everything after it is `encode_chunk`, so the result is bitwise
/// identical to decoding the values first and calling
/// [`encode_f64_batch`].
///
/// `bytes.len()` must be a multiple of 8 (the wire protocol validates
/// this before the payload reaches the ledger); trailing bytes beyond
/// the last whole `f64` are debug-asserted against and ignored.
pub fn encode_f64_le_batch<const N: usize, const K: usize>(acc: &mut BatchAcc<N, K>, bytes: &[u8]) {
    debug_assert!(bytes.len().is_multiple_of(8), "wire f64 payload must be whole values");
    let mut banks = LaneBanks::new();
    let mut buf = [0.0f64; ENCODE_CHUNK];
    for chunk in bytes.chunks(ENCODE_CHUNK * 8) {
        let mut n = 0;
        for (slot, le) in buf.iter_mut().zip(chunk.chunks_exact(8)) {
            // lint:allow(service-unwrap) -- infallible: chunks_exact(8) yields 8-byte slices
            *slot = f64::from_le_bytes(le.try_into().unwrap());
            n += 1;
        }
        encode_chunk(acc, &mut banks, &buf[..n]);
    }
}

/// The index of the first little-endian `f64` in `bytes` that an
/// `HP(N, K)` accumulator cannot hold: a NaN, an infinity, or a
/// magnitude at or beyond the format range `2^(64·(N−K)−1)`. These are
/// exactly the values the kernel's own threshold routes to the scalar
/// Listing-1 encode, which debug-asserts on them and saturates in
/// release, so a caller that must refuse rather than deposit garbage
/// screens its input here first. `None` means every value is finite
/// and in range. Trailing bytes beyond the last whole `f64` are
/// ignored, as [`encode_f64_le_batch`] ignores them.
pub fn first_out_of_range_le<const N: usize, const K: usize>(bytes: &[u8]) -> Option<usize> {
    // With the sign shifted out, a value's bits order as its raw
    // exponent field first, so one unsigned compare against the
    // threshold exponent's bits screens it; the max pass has no early
    // exit and vectorizes, and only a batch holding an offender pays
    // for the search.
    let limit = u64::from(Tables::<N, K>::THRESH) << 53;
    let key = |le: &[u8]| {
        let mut word = [0u8; 8];
        word.copy_from_slice(le);
        u64::from_le_bytes(word) << 1
    };
    let max = bytes.chunks_exact(8).map(key).max()?;
    if max < limit {
        return None;
    }
    bytes.chunks_exact(8).position(|le| key(le) >= limit)
}

/// One chunk (≤ [`ENCODE_CHUNK`] values): scatter two's-complement
/// word pairs into the per-lane banks [`LANES`] values per step, then
/// fold the normalized non-negative partials into `acc`. `banks` must
/// arrive all-zero; [`fold_banks`] restores that invariant on exit.
fn encode_chunk<const N: usize, const K: usize>(
    acc: &mut BatchAcc<N, K>,
    banks: &mut LaneBanks,
    chunk: &[f64],
) {
    debug_assert!(chunk.len() <= ENCODE_CHUNK);
    let mut groups = chunk.chunks_exact(LANES);
    for g in groups.by_ref() {
        // chunks_exact guarantees the group length; the array view makes
        // that visible to the compiler so no bounds checks survive.
        // lint:allow(service-unwrap) -- infallible: chunks_exact(LANES) yields LANES-length slices
        let g: &[f64; LANES] = g.try_into().unwrap();
        // Lane-struct extraction: fixed-width arrays with no cross-lane
        // dependencies. The const-LANES loops fully unroll.
        let mut bits = [0u64; LANES];
        let mut raw = [0u32; LANES];
        for l in 0..LANES {
            bits[l] = g[l].to_bits();
            raw[l] = ((bits[l] >> 52) & 0x7ff) as u32;
        }
        // One screen per group: the lane-wise max raw exponent is below
        // the threshold iff every lane takes the fast path.
        let mut max_raw = 0u32;
        for &r in &raw {
            max_raw = if r > max_raw { r } else { max_raw };
        }
        if max_raw >= Tables::<N, K>::THRESH {
            mixed_group::<N, K>(banks, g);
            continue;
        }
        // Per-lane DISPATCH/MULT lookups hoisted into gathers, then the
        // arithmetic runs as LANES independent register chains.
        let mut disp = [0u32; LANES];
        let mut mult = [0u64; LANES];
        for l in 0..LANES {
            disp[l] = Tables::<N, K>::DISPATCH[(raw[l] & 0x7ff) as usize];
            mult[l] = Tables::<N, K>::MULT[(raw[l] & 0x7ff) as usize];
        }
        for l in 0..LANES {
            let b = bits[l];
            let e = disp[l];
            let m = mult[l];
            // Same decomposition as split_f64_bits, but the implicit
            // bit comes from the already-extracted raw exponent with
            // pure arithmetic (bit 11 of raw + 0x7ff is set iff
            // raw ≥ 1) instead of a compare-and-select.
            let sign_mask = ((b as i64) >> 63) as u64;
            let mantissa = (b & ((1u64 << 52) - 1)) | ((((raw[l] + 0x7ff) & 0x800) as u64) << 41);
            // Truncate sub-resolution bits (drop ≤ 63), then negate
            // branchlessly: (mt ^ s) − s is mt for s = 0 and −mt for
            // s = −1. mt ≤ 2^53, so mts is exactly ±mt as an i64.
            let mt = mantissa >> (e & 0x3f);
            let mts = (mt ^ sign_mask).wrapping_sub(sign_mask);
            // Position within the limb pair by a widening multiply with
            // the table-stored 2^intra: v = mts · 2^intra exactly
            // (|v| < 2^117), and the product's word split *is* the
            // two's-complement word pair — lo = v mod 2^64 unsigned,
            // hi = ⌊v / 2^64⌋ signed. One unsigned multiply (plus the
            // sign-extended 64×64 form the compiler lowers to one
            // widening multiply plus a high-word fixup) instead of
            // three count-register-serialized variable shifts.
            let p = (mts as i64 as i128) * (m as i128);
            let lo = p as u64;
            let hi = (p >> 64) as i64;
            let lo_slot = ((e >> 8) & 0x1f) as usize;
            // Lane l owns bank l: consecutive values on the same limb
            // land in different shards, so the slot update chains are
            // LANES-way parallel. lo zero-extends (an unsigned word),
            // hi sign-extends; hi · 2^64 + lo = v exactly.
            banks.bank[l][lo_slot & 0x1f] += lo as i128;
            banks.bank[l][lo_slot.wrapping_sub(1) & 0x1f] += hi as i128;
        }
    }
    for &x in groups.remainder() {
        encode_one::<N, K>(banks, 0, x);
    }
    fold_banks(acc, banks, chunk.len() as u32);
}

/// Encodes a single value into lane `lane` of the banks — the tail path
/// for chunk lengths that are not a multiple of [`LANES`], and the
/// re-screened per-value path inside [`mixed_group`]. Identical
/// arithmetic to the lane fast path.
#[inline]
fn encode_one<const N: usize, const K: usize>(banks: &mut LaneBanks, lane: usize, x: f64) {
    let bits = x.to_bits();
    let raw = ((bits >> 52) & 0x7ff) as u32;
    if raw >= Tables::<N, K>::THRESH {
        slow_encode::<N, K>(banks, lane, x);
        return;
    }
    let (sign_mask, mantissa, _) = split_f64_bits(bits);
    let e = Tables::<N, K>::DISPATCH[(raw & 0x7ff) as usize];
    let m = Tables::<N, K>::MULT[(raw & 0x7ff) as usize];
    let mt = mantissa >> (e & 0x3f);
    let mts = (mt ^ sign_mask).wrapping_sub(sign_mask);
    let p = (mts as i64 as i128) * (m as i128);
    let lo = p as u64;
    let hi = (p >> 64) as i64;
    let lo_slot = ((e >> 8) & 0x1f) as usize;
    let bank = &mut banks.bank[lane % LANES];
    bank[lo_slot & 0x1f] += lo as i128;
    bank[lo_slot.wrapping_sub(1) & 0x1f] += hi as i128;
}

/// The rare group: at least one lane holds a non-finite or out-of-range
/// value. Re-screens per value so the in-range lanes still take the
/// fast arithmetic and only the offenders pay for the scalar reference
/// encode.
#[cold]
#[inline(never)]
fn mixed_group<const N: usize, const K: usize>(banks: &mut LaneBanks, g: &[f64]) {
    for (l, &x) in g.iter().enumerate() {
        encode_one::<N, K>(banks, l, x);
    }
}

/// The rare path: non-finite or out-of-range magnitude. Reuses the
/// scalar Listing-1 [`encode_listing1`] reference so behavior (including
/// debug assertions and release saturation) is exactly the per-value
/// path's, and deposits the already-two's-complement limbs unsigned.
#[cold]
#[inline(never)]
fn slow_encode<const N: usize, const K: usize>(banks: &mut LaneBanks, lane: usize, x: f64) {
    let limbs = encode_listing1::<N, K>(x);
    let bank = &mut banks.bank[lane % LANES];
    for (j, &limb) in limbs.iter().enumerate() {
        bank[(j + 1) & 0x1f] += limb as i128;
    }
}

/// Folds the lane banks into per-limb partials and hands them to the
/// accumulator. The slot sums are signed (negative values deposit
/// negative high words), so one borrow pass from the bottom limb up
/// rewrites them as canonical digits in `[0, 2^64)`: each limb keeps
/// `s mod 2^64` and pushes `⌊s / 2^64⌋` one limb up. The carry out of
/// the top limb is a multiple of `2^(64·N)` and is discarded — exactly
/// the accumulator's two's-complement wrap. Slot sums stay below
/// `2 · ENCODE_CHUNK · 2^64 < 2^73` per lane-kernel chunk and below
/// `2^78` per bins block (at most `BIN_FLUSH · LANES` mixed-path
/// deposits plus one flush), far inside `i128`. Summing the
/// shards slot-wise is pure integer reassociation — the same partials a
/// single shared bank would have produced (the lane-order-invariance
/// argument in the module docs).
fn fold_banks<const N: usize, const K: usize>(
    acc: &mut BatchAcc<N, K>,
    banks: &mut LaneBanks,
    count: u32,
) {
    let mut partials = [0i128; N];
    let mut carry = 0i128;
    for j in (0..N).rev() {
        let mut s = carry;
        for bank in &mut banks.bank {
            // Drain-and-zero: a chunk only ever touches slots 0..=N, so
            // taking them here (plus slot 0 below) restores the all-zero
            // invariant without a full bank clear per chunk.
            s += core::mem::take(&mut bank[(j + 1) & 0x1f]);
        }
        partials[j] = (s as u64) as i128;
        carry = s >> 64;
    }
    for bank in &mut banks.bank {
        // Slot 0 swallowed the discarded above-top-limb words (a
        // multiple of 2^(64·N) — the two's-complement wrap).
        bank[0] = 0;
    }
    acc.absorb_partials(&partials, count);
}

/// Encodes `xs` into exponent-indexed bins (Neal's large
/// superaccumulator) and deposits the result into `acc`, bitwise
/// identically to [`encode_f64_batch`] — the long-slice path behind
/// [`BatchAcc::extend_f64`]. Formats whose live exponent window does
/// not fit the bins (`N > 8`) run the lane kernel instead.
///
/// Each value adds its truncated mantissa, still in place, into lane
/// `l`'s `u64` bin for its sign and raw exponent: no shift, no
/// multiply, no `i128` word pair per value. Every [`BIN_FLUSH`] adds per
/// lane, [`flush_bins`] shifts each touched bin's net once into the
/// banks and [`fold_banks`] hands the partials to the accumulator.
/// Groups holding a non-finite or out-of-range value take the lane
/// kernel's `#[cold]` mixed path into the same banks.
pub(crate) fn encode_f64_bins<const N: usize, const K: usize>(
    acc: &mut BatchAcc<N, K>,
    xs: &[f64],
) {
    if !Tables::<N, K>::BINS_FIT {
        encode_f64_batch(acc, xs);
        return;
    }
    let mut bins = [[0u64; 2 * BINS_PER_SIGN]; LANES];
    let mut banks = LaneBanks::new();
    for block in xs.chunks(BIN_FLUSH * LANES) {
        // Bit g set: some bin in 16g..16g+16 may be nonzero.
        let mut touched = 0u64;
        let mut groups = block.chunks_exact(LANES);
        for g in groups.by_ref() {
            let g: &[f64; LANES] =
                g.try_into().expect("chunks_exact(LANES) yields LANES-length slices");
            let mut bits = [0u64; LANES];
            let mut raw = [0u32; LANES];
            for l in 0..LANES {
                bits[l] = g[l].to_bits();
                raw[l] = ((bits[l] >> 52) & 0x7ff) as u32;
            }
            let mut max_raw = 0u32;
            for &r in &raw {
                max_raw = if r > max_raw { r } else { max_raw };
            }
            if max_raw >= Tables::<N, K>::THRESH {
                mixed_group::<N, K>(&mut banks, g);
                continue;
            }
            for l in 0..LANES {
                let bin = bin_index(bits[l], raw[l]);
                let mask = Tables::<N, K>::BIN_MASK[(raw[l] & 0x7ff) as usize];
                bins[l][bin] += (bits[l] | (1 << 52)) & mask;
                touched |= 1 << (bin / BIN_GROUP);
            }
        }
        // The tail (only ever in the last block, which then holds at most
        // 2047 groups) spreads over the lanes, so none passes BIN_FLUSH.
        for (l, &x) in groups.remainder().iter().enumerate() {
            let bits = x.to_bits();
            let raw = ((bits >> 52) & 0x7ff) as u32;
            if raw >= Tables::<N, K>::THRESH {
                slow_encode::<N, K>(&mut banks, l, x);
                continue;
            }
            let bin = bin_index(bits, raw);
            let mask = Tables::<N, K>::BIN_MASK[(raw & 0x7ff) as usize];
            bins[l][bin] += (bits | (1 << 52)) & mask;
            touched |= 1 << (bin / BIN_GROUP);
        }
        flush_bins::<N, K>(&mut bins, touched, &mut banks);
        fold_banks(acc, &mut banks, block.len() as u32);
    }
}

/// A value's bin: the sign selects the half, the raw exponent mod
/// [`BINS_PER_SIGN`] the bin within it. Always below `2 · BINS_PER_SIGN`.
#[inline(always)]
fn bin_index(bits: u64, raw: u32) -> usize {
    (raw as usize & (BINS_PER_SIGN - 1)) | ((bits >> 63) as usize * BINS_PER_SIGN)
}

/// Drains the touched bins into bank 0. Per live raw exponent, the
/// lanes' positive bins are summed in `u128` (each below `2^64`, so the
/// sum is below `2^66`) and the negative ones subtracted; the net is
/// shifted once by the exponent's DISPATCH/MULT entry into a
/// two's-complement word pair, as the lane kernel positions one value.
/// The right shift by `drop` is exact: the mask cleared those bits of
/// every term. Leaves every bin zero.
fn flush_bins<const N: usize, const K: usize>(
    bins: &mut [[u64; 2 * BINS_PER_SIGN]; LANES],
    touched: u64,
    banks: &mut LaneBanks,
) {
    let base = Tables::<N, K>::BIN_LO;
    // A group's positive and negative bins drain together.
    let mut groups = (touched | (touched >> 32)) & 0xffff_ffff;
    while groups != 0 {
        let g = groups.trailing_zeros() as usize;
        groups &= groups - 1;
        for w in g * BIN_GROUP..(g + 1) * BIN_GROUP {
            let (pos_w, neg_w) = (w & (BINS_PER_SIGN - 1), w | BINS_PER_SIGN);
            let (mut pos, mut neg) = (0u128, 0u128);
            for lane in bins.iter_mut() {
                pos += core::mem::take(&mut lane[pos_w]) as u128;
                neg += core::mem::take(&mut lane[neg_w & (2 * BINS_PER_SIGN - 1)]) as u128;
            }
            let net = pos as i128 - neg as i128;
            // The one live raw exponent that folds onto bin w; a bin whose
            // window slot lies past the threshold only ever received zeros.
            let raw = base + (w.wrapping_sub(base) & (BINS_PER_SIGN - 1));
            if net != 0 && raw < Tables::<N, K>::THRESH as usize {
                let e = Tables::<N, K>::DISPATCH[raw & 0x7ff];
                let m = Tables::<N, K>::MULT[raw & 0x7ff];
                let v = net >> (e & 0x3f);
                // v = hi · 2^64 + lo with lo unsigned, so v · 2^intra puts
                // lo · 2^intra's two words at lo_slot and lo_slot − 1 and
                // hi · 2^intra (|hi| ≤ 4) whole into lo_slot − 1.
                let p = (v as u64 as u128) * (m as u128);
                let hi = (v >> 64) as i64;
                let lo_slot = ((e >> 8) & 0x1f) as usize;
                let bank = &mut banks.bank[0];
                bank[lo_slot & 0x1f] += (p as u64) as i128;
                bank[lo_slot.wrapping_sub(1) & 0x1f] += (p >> 64) as i128 + hi as i128 * m as i128;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::HpFixed;

    /// Kernel encode of a single value, read back as canonical limbs.
    fn kernel_one<const N: usize, const K: usize>(x: f64) -> [u64; N] {
        let mut acc = BatchAcc::<N, K>::new();
        encode_f64_batch(&mut acc, &[x]);
        *acc.finish().as_limbs()
    }

    fn scalar_one<const N: usize, const K: usize>(x: f64) -> [u64; N] {
        *HpFixed::<N, K>::from_f64_unchecked(x).as_limbs()
    }

    /// Bins encode of a single value, read back as canonical limbs.
    fn bins_one<const N: usize, const K: usize>(x: f64) -> [u64; N] {
        let mut acc = BatchAcc::<N, K>::new();
        encode_f64_bins(&mut acc, &[x]);
        *acc.finish().as_limbs()
    }

    /// The three paths over one slice: the bins, the lane kernel and
    /// per-value Listing-1 deposits. All three must agree bit for bit;
    /// returns the per-value sum.
    fn assert_three_paths<const N: usize, const K: usize>(xs: &[f64], what: &str) -> HpFixed<N, K> {
        let mut bins = BatchAcc::<N, K>::new();
        encode_f64_bins(&mut bins, xs);
        let mut lane = BatchAcc::<N, K>::new();
        encode_f64_batch(&mut lane, xs);
        let mut scalar = BatchAcc::<N, K>::new();
        for &x in xs {
            scalar.encode_deposit(x);
        }
        let want = scalar.finish();
        assert_eq!(lane.finish(), want, "lane kernel, {what}");
        assert_eq!(bins.finish(), want, "bins, {what}");
        want
    }

    /// Every raw exponent below the threshold, both signs, with
    /// mantissas 0, 1, a mixed pattern and all ones.
    fn exponent_sweep<const N: usize, const K: usize>() -> Vec<f64> {
        let mut xs = Vec::new();
        for raw in 0..u64::from(Tables::<N, K>::THRESH) {
            for frac in [0u64, 1, 0x000F_0F0F_0F0F_0F05, (1 << 52) - 1] {
                for sign in [0u64, 1 << 63] {
                    xs.push(f64::from_bits(sign | raw << 52 | frac));
                }
            }
        }
        xs
    }

    #[test]
    fn thresholds_split_range_exactly() {
        // Hp6x3: range 2^191 → threshold raw exponent 64·3 + 1022.
        assert_eq!(Tables::<6, 3>::THRESH, 1214);
        // Full-width integer part (N−K = 16): threshold stays below 2047.
        assert_eq!(Tables::<16, 0>::THRESH, 2046);
        // All-fraction format: |x| < 0.5.
        assert_eq!(Tables::<1, 1>::THRESH, 1022);
    }

    #[test]
    fn out_of_range_screen_is_the_kernel_threshold() {
        let le = |xs: &[f64]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        // Every raw exponent, both signs: refused exactly when the
        // kernel would route the value to the scalar fallback.
        for raw in 0u64..2048 {
            for sign in [0u64, 1 << 63] {
                let x = f64::from_bits(sign | raw << 52 | 0x8_0000_0000_0001);
                let refused = first_out_of_range_le::<6, 3>(&le(&[0.5, x])).is_some();
                assert_eq!(refused, raw >= u64::from(Tables::<6, 3>::THRESH), "raw {raw}");
            }
        }
        let edge = f64::from_bits(2f64.powi(191).to_bits() - 1);
        let fine = [1.0, edge, -edge, 5e-324, -0.0, 0.0];
        assert_eq!(first_out_of_range_le::<6, 3>(&le(&fine)), None);
        for bad in [2f64.powi(191), -2f64.powi(191), 1e300, -1e300, f64::NAN, f64::INFINITY] {
            let mut xs = fine.to_vec();
            xs.insert(3, bad);
            xs.push(-f64::INFINITY);
            assert_eq!(first_out_of_range_le::<6, 3>(&le(&xs)), Some(3), "{bad}");
        }
        // Nothing to screen, and a sub-value tail, are both in range.
        assert_eq!(first_out_of_range_le::<6, 3>(&[]), None);
        assert_eq!(first_out_of_range_le::<6, 3>(&[0xff; 7]), None);
    }

    #[test]
    fn matches_scalar_on_special_values() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1.0 + 2f64.powi(-52),
            12345.678,
            -98765.4321,
            1e-300,
            -1e-300,
            3.5e17,
            -3.5e17,
        ] {
            assert_eq!(kernel_one::<6, 3>(x), scalar_one::<6, 3>(x), "6,3 x={x:e}");
            assert_eq!(kernel_one::<3, 2>(x), scalar_one::<3, 2>(x), "3,2 x={x:e}");
            assert_eq!(kernel_one::<2, 1>(x), scalar_one::<2, 1>(x), "2,1 x={x:e}");
            assert_eq!(bins_one::<6, 3>(x), scalar_one::<6, 3>(x), "bins 6,3 x={x:e}");
            assert_eq!(bins_one::<3, 2>(x), scalar_one::<3, 2>(x), "bins 3,2 x={x:e}");
            assert_eq!(bins_one::<2, 1>(x), scalar_one::<2, 1>(x), "bins 2,1 x={x:e}");
        }
    }

    #[test]
    fn matches_scalar_across_full_exponent_sweep() {
        // Every in-range binade of the 6×3 format, both signs, mantissa
        // patterns that exercise the truncation and the intra-limb shift
        // (±0, the subnormals and ±(2^191 − ulp) among them).
        for x in exponent_sweep::<6, 3>() {
            let want = scalar_one::<6, 3>(x);
            assert_eq!(kernel_one::<6, 3>(x), want, "lane x = {x:e} ({:#x})", x.to_bits());
            assert_eq!(bins_one::<6, 3>(x), want, "bins x = {x:e} ({:#x})", x.to_bits());
        }
    }

    #[test]
    fn matches_scalar_at_range_boundary() {
        // The largest f64 below each format's range bound, and the
        // smallest truncating-to-nonzero magnitudes around it.
        let below_191 = f64::from_bits((2f64.powi(191)).to_bits() - 1);
        for x in [below_191, -below_191, 2f64.powi(190), -2f64.powi(190)] {
            assert_eq!(kernel_one::<6, 3>(x), scalar_one::<6, 3>(x), "x={x:e}");
            assert_eq!(bins_one::<6, 3>(x), scalar_one::<6, 3>(x), "bins x={x:e}");
        }
        let below_63 = f64::from_bits((2f64.powi(63)).to_bits() - 1);
        for x in [below_63, -below_63] {
            assert_eq!(kernel_one::<2, 1>(x), scalar_one::<2, 1>(x), "x={x:e}");
            assert_eq!(bins_one::<2, 1>(x), scalar_one::<2, 1>(x), "bins x={x:e}");
        }
    }

    #[test]
    fn mixed_chunks_match_per_value_deposits() {
        // Straddles chunk boundaries (3 · 256 + 17 values) with signs,
        // magnitudes across ~25 binades, and sub-resolution values.
        let xs: Vec<f64> = (0..(3 * ENCODE_CHUNK + 17))
            .map(|i| {
                let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
                sign * (i as f64 + 0.3) * 10f64.powi((i % 25) as i32 - 12)
            })
            .collect();
        let mut fast = BatchAcc::<6, 3>::new();
        encode_f64_batch(&mut fast, &xs);
        let mut slow = BatchAcc::<6, 3>::new();
        for &x in &xs {
            slow.encode_deposit(x);
        }
        assert_eq!(fast.finish(), slow.finish());
    }

    #[test]
    fn every_tail_length_matches_per_value_deposits() {
        // Chunks of every length 0..=2·ENCODE_CHUNK: covers empty input,
        // single-value chunks, every non-multiple of LANES, exactly one
        // full chunk, and a chunk boundary straddle with a tail group.
        let pool: Vec<f64> = (0..(2 * ENCODE_CHUNK))
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * ((i * 37 + 1) as f64) * 10f64.powi((i % 31) as i32 - 15)
            })
            .collect();
        for len in 0..=(2 * ENCODE_CHUNK) {
            let xs = &pool[..len];
            let mut fast = BatchAcc::<6, 3>::new();
            encode_f64_batch(&mut fast, xs);
            let mut slow = BatchAcc::<6, 3>::new();
            for &x in xs {
                slow.encode_deposit(x);
            }
            assert_eq!(fast.finish(), slow.finish(), "length {len}");
        }
    }

    #[test]
    fn le_byte_entry_matches_slice_entry() {
        let xs: Vec<f64> = (0..(ENCODE_CHUNK + LANES + 1))
            .map(|i| (i as f64 - 100.0) * 1.37e-7 * if i % 5 == 0 { -1.0 } else { 1.0 })
            .collect();
        let bytes: Vec<u8> = xs.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        let mut from_bytes = BatchAcc::<6, 3>::new();
        encode_f64_le_batch(&mut from_bytes, &bytes);
        let mut from_slice = BatchAcc::<6, 3>::new();
        encode_f64_batch(&mut from_slice, &xs);
        assert_eq!(from_bytes.finish(), from_slice.finish());
    }

    #[test]
    fn bin_tables_describe_the_live_window() {
        // HP(6,3): mantissas live from raw 831 (2^-192 · 2^52 truncates
        // to its top bit) to 1213, 383 exponents per sign.
        assert_eq!(Tables::<6, 3>::BIN_LO, 831);
        assert_eq!(Tables::<6, 3>::THRESH as usize - Tables::<6, 3>::BIN_LO, 383);
        assert_eq!(Tables::<6, 3>::BIN_MASK[830], 0);
        assert_eq!(Tables::<6, 3>::BIN_MASK[831], 1 << 52);
        assert_eq!(Tables::<6, 3>::BIN_MASK[883], (1 << 53) - 1);
        let fits = [
            Tables::<6, 3>::BINS_FIT,
            Tables::<8, 4>::BINS_FIT,
            Tables::<8, 0>::BINS_FIT,
            Tables::<9, 4>::BINS_FIT,
            Tables::<16, 0>::BINS_FIT,
        ];
        assert_eq!(fits, [true, true, true, false, false]);
    }

    #[test]
    fn bins_match_across_every_exponent_in_one_slice() {
        fn sweep_slices<const N: usize, const K: usize>(what: &str) {
            // Both signs at once put every live bin in play, but each
            // value's negation cancels it; each sign alone, twice over,
            // cannot cancel. All three slices cross a flush boundary.
            let sweep = exponent_sweep::<N, K>();
            assert_three_paths::<N, K>(&sweep, what);
            for neg in [false, true] {
                let half: Vec<f64> =
                    sweep.iter().copied().filter(|x| x.is_sign_negative() == neg).collect();
                assert_three_paths::<N, K>(&[&half[..], &half[..]].concat(), what);
            }
        }
        sweep_slices::<6, 3>("6,3 sweep");
        sweep_slices::<8, 4>("8,4 sweep");
        sweep_slices::<3, 2>("3,2 sweep");
        sweep_slices::<2, 1>("2,1 sweep");
        // A format too wide for the bins falls back to the lane kernel.
        sweep_slices::<10, 5>("10,5 sweep");
    }

    #[test]
    fn bins_survive_largest_mantissa_runs_past_three_flushes() {
        // Every add lands in one bin with the largest truncated mantissa
        // (2^53 − 1, no bits dropped): one more add per lane between
        // flushes would wrap the bin. The run ends one value past a
        // flush boundary.
        let run = 3 * BIN_FLUSH * LANES + 1;
        for x in [2.0 - f64::EPSILON, 2f64.powi(-140) * (2.0 - f64::EPSILON)] {
            for x in [x, -x] {
                assert_three_paths::<6, 3>(&vec![x; run], &format!("run of {x:e}"));
            }
        }
        // Both signs in one bin pair, interleaved.
        let top = 2.0 - f64::EPSILON;
        let mixed: Vec<f64> = (0..run).map(|i| if i % 3 == 0 { -top } else { top }).collect();
        assert_three_paths::<6, 3>(&mixed, "interleaved signs");
    }

    #[test]
    fn routed_lengths_around_the_crossover_and_flush_blocks() {
        let pool: Vec<f64> = (0..(BIN_FLUSH * LANES + BINS_MIN_LEN + 2 * LANES))
            .map(|i| {
                let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
                sign * ((i * 37 + 1) as f64) * 2f64.powi((i % 97) as i32 - 60)
            })
            .collect();
        let mut lens = vec![BINS_MIN_LEN - 1, BINS_MIN_LEN, BINS_MIN_LEN + 1];
        for r in 0..LANES {
            lens.push(BINS_MIN_LEN + LANES + r);
            lens.push(BIN_FLUSH * LANES - LANES + r);
            lens.push(BIN_FLUSH * LANES + r);
            lens.push(BIN_FLUSH * LANES + BINS_MIN_LEN + r);
        }
        for len in lens {
            let xs = &pool[..len];
            let mut routed = BatchAcc::<6, 3>::new();
            routed.extend_f64(xs);
            let want = assert_three_paths::<6, 3>(xs, &format!("length {len}"));
            assert_eq!(routed.finish(), want, "extend_f64, length {len}");
        }
    }

    #[test]
    fn lane_evidence_reports_shape() {
        let ev = lane_evidence();
        assert!(ev.contains("lanes=4") && ev.contains("chunk=256"), "{ev}");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_mode_garbage_is_identical_beyond_the_range() {
        // Out-of-range and non-finite inputs are unsupported (the scalar
        // path saturates to *some* limbs in release builds); the kernel
        // must produce the same garbage so the fast path is undetectable.
        for x in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            2f64.powi(191),
            -2f64.powi(191),
            1e308,
            -1e308,
        ] {
            assert_eq!(kernel_one::<6, 3>(x), scalar_one::<6, 3>(x), "x={x}");
            assert_eq!(kernel_one::<2, 1>(x), scalar_one::<2, 1>(x), "x={x}");
        }
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn all_fallback_chunks_match_the_reference() {
        // A chunk in which *every* group routes through the mixed/slow
        // path, interleaved with a few fast values so both arms of the
        // per-value re-screen run inside mixed groups; then, past the
        // crossover, in-range runs with offenders in lane groups and in
        // the tail, so the bins hand those groups to the mixed path too.
        let mut xs: Vec<f64> = (0..(ENCODE_CHUNK + 3))
            .map(|i| match i % 4 {
                0 => f64::INFINITY,
                1 => -1e308,
                2 => 1.5 * (i as f64),
                _ => f64::NEG_INFINITY,
            })
            .collect();
        let bad = [f64::INFINITY, f64::NAN, 2f64.powi(191), -1e308, 1e300];
        for i in 0..2 * BIN_FLUSH * LANES {
            let x = (i as f64 - 700.0) * 2f64.powi((i % 41) as i32 - 20);
            xs.push(if i % 1601 == 0 { bad[i % bad.len()] } else { x });
        }
        xs.extend_from_slice(&bad[..3]);
        assert_three_paths::<6, 3>(&xs[..ENCODE_CHUNK + 3], "one all-fallback chunk");
        let want = assert_three_paths::<6, 3>(&xs, "fallback groups");
        let mut routed = BatchAcc::<6, 3>::new();
        routed.extend_f64(&xs);
        assert_eq!(routed.finish(), want);
    }
}
