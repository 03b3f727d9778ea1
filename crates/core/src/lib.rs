//! # oisum-core — the HP method
//!
//! Rust implementation of the **High-Precision (HP) method** for
//! order-invariant real number summation, from
//!
//! > P. E. Small, R. K. Kalia, A. Nakano, P. Vashishta. *Order-Invariant
//! > Real Number Summation: Circumventing Accuracy Loss for Multimillion
//! > Summands on Multiple Parallel Architectures.* IPDPS 2016.
//!
//! A real number `r` is represented by `N` unsigned 64-bit limbs `a_i`
//! (Eq. 2 of the paper):
//!
//! ```text
//! r = Σ_{i=0}^{N-1} a_i · 2^(64·(N−k−1−i))
//! ```
//!
//! interpreted as one `64·N`-bit **two's-complement fixed-point** integer
//! with `64·k` fractional bits. Exactly one bit (the sign bit) does not
//! carry value — the paper's "information content maximization" in contrast
//! to the Hallberg method's per-limb carry headroom. Because addition of
//! such values is plain integer addition, sums are **exactly associative**:
//! invariant to summation order, thread interleaving, reduction-tree shape,
//! and the architecture executing them.
//!
//! ## Quick start
//!
//! ```
//! use oisum_core::Hp6x3;
//!
//! // 384-bit accumulator (the paper's Figs. 5–8 format).
//! let data: Vec<f64> = (0..10_000).map(|i| (i as f64 - 5000.0) * 1e-7).collect();
//! let total = Hp6x3::sum_f64_slice(&data);
//!
//! // Any permutation produces the bitwise-identical sum.
//! let mut shuffled = data.clone();
//! shuffled.reverse();
//! assert_eq!(total, Hp6x3::sum_f64_slice(&shuffled));
//!
//! println!("exact sum = {}", total.to_f64());
//! ```
//!
//! ## Module tour
//!
//! | Module | Paper section | Contents |
//! |--------|--------------|----------|
//! | [`fixed`] | §III.A, Listings 1–2 | [`HpFixed<N, K>`](fixed::HpFixed) value type and arithmetic |
//! | [`convert`] | Listing 1 | the float-path conversion loop and its inverse |
//! | [`batch`] | throughput extension | [`BatchAcc`], carry-deferred batch accumulation; [`StagedAcc`], its staging buffer for values that arrive a few at a time |
//! | [`kernel`] | throughput extension | [`encode_f64_batch`], the lane kernel; exponent-indexed bins for long slices |
//! | [`atomic`] | §III.B.2 | [`AtomicHp`], CAS/fetch-add accumulators |
//! | [`sync_shim`] | — | [`SyncShimLike`], the Mutex/Condvar abstraction the model checker instantiates |
//! | [`format`](mod@format) | Table 1 | runtime format descriptors, range/resolution math |
//! | [`dyn_hp`] | — | runtime-format values backing the adaptive extension |
//! | [`adaptive`] | §V (future work) | [`AdaptiveHp`], runtime precision growth |
//! | [`ops`] | extension | exact integer scaling, abs/signum, weighted sums |
//! | [`dot`] | extension | exact order-invariant dot products (EFT + HP) |
//! | [`trace`] | Fig. 3 | step-by-step conversion/addition transcripts |
//! | [`error`] | §III.B.1 | overflow/underflow taxonomy |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod atomic;
pub mod batch;
pub mod convert;
pub mod dot;
pub mod dyn_hp;
pub mod error;
pub mod fixed;
pub mod format;
pub mod kernel;
pub mod ops;
#[cfg(feature = "serde")]
mod serde_impls;
pub mod sum;
pub mod sync_shim;
pub mod trace;

pub use adaptive::AdaptiveHp;
pub use batch::{BatchAcc, StagedAcc};
pub use dot::{hp_dot, hp_norm_sq, two_product};
pub use atomic::{AtomicHp, AtomicHpImpl, AtomicU64Like};
pub use sync_shim::{StdSyncShim, SyncShimLike};
pub use dyn_hp::DynHp;
pub use error::HpError;
pub use kernel::{
    encode_f64_batch, encode_f64_le_batch, lane_evidence, BINS_MIN_LEN, ENCODE_CHUNK, LANES,
};
pub use sum::HpSumExt;
pub use fixed::{Hp2x1, Hp3x2, Hp6x3, Hp8x4, HpFixed};
pub use format::HpFormat;
