//! Deterministic interleaving exploration for the oisum atomic
//! accumulators — a std-only, loom-flavoured stateless model checker.
//!
//! The paper's order-invariance claim is a statement about *all*
//! interleavings: however concurrent deposits land, the HP accumulator
//! must converge to bitwise-identical limbs. The stress tests in
//! `oisum-core` hammer the accumulator from real threads, but a stress
//! test only samples the schedule space; this crate enumerates it.
//!
//! # How it works
//!
//! [`oisum_core::AtomicU64Like`] abstracts the accumulator's atomic
//! cells. Production uses `std::sync::atomic::AtomicU64`; here,
//! [`ModelAtomicU64`] routes every atomic operation through a
//! cooperative scheduler (`sched`) that parks the calling thread until
//! the controller grants it one step. Execution is therefore fully
//! serialized and every context switch is a *choice point*. The
//! explorer ([`Model::check`]) runs the scenario repeatedly, depth-first
//! over the tree of choices, replaying a recorded prefix and branching
//! at the deepest unexplored alternative — classic stateless model
//! checking (CDSChecker/loom style, without weak-memory simulation: the
//! virtual atomics are sequentially consistent, which over-approximates
//! visibility but preserves every modification-order interleaving, the
//! axis HP correctness actually depends on).
//!
//! # Blocking primitives
//!
//! Since the WAL group-commit work, protocols under test may also
//! block: [`ModelMutex`] and [`ModelCondvar`] implement
//! [`oisum_core::SyncShimLike`] (via [`ModelSyncShim`]), so the *real*
//! trait-parameterized blocking code — the WAL commit queue — explores
//! every schedule too. The scheduler understands blocked threads, which
//! upgrades three silent hangs into verdicts ([`Failure`]):
//!
//! * **deadlock** — a stable state where some thread is blocked on a
//!   mutex and no thread is runnable;
//! * **lost wakeup** — a stable state where every unfinished thread is
//!   parked in a condvar wait;
//! * **lock-order inversion** — an acquisition that closes a cycle in
//!   the observed lock graph or contradicts the order declared with
//!   [`declare_lock_order`].
//!
//! # Scope and bounds
//!
//! * Threads communicate **only** through [`ModelAtomicU64`] cells and
//!   [`ModelMutex`]/[`ModelCondvar`] primitives; any other shared state
//!   is invisible to the scheduler.
//! * `compare_exchange_weak` never fails spuriously under the model
//!   (spurious failure would add schedules, not remove them).
//! * `notify_one` is modeled as `notify_all`, and `wait_timeout` as an
//!   immediate timeout with a release/reacquire window — both sound
//!   over-approximations for predicate-loop waiters (see [`sync`'s
//!   module docs](ModelMutex)).
//! * Exploration is exhaustive by default; [`Model::preemption_bound`]
//!   optionally restricts to schedules with at most *P* preemptive
//!   switches (the classic CHESS bound) for larger scenarios.
//! * [`Model::max_executions`] is a safety valve: exceeding it panics
//!   rather than silently truncating coverage.
//!
//! ```
//! use oisum_loom_lite::{Model, ModelAtomicHp};
//! use oisum_core::HpFixed;
//!
//! // Two threads race one dense deposit each; every interleaving must
//! // produce the same limbs.
//! let v = HpFixed::<2, 1>::from_f64(1.5).unwrap();
//! let report = Model::default().check(
//!     ModelAtomicHp::<2, 1>::zero,
//!     vec![
//!         Box::new(move |acc: &ModelAtomicHp<2, 1>| { acc.add_dense(&v); }),
//!         Box::new(move |acc: &ModelAtomicHp<2, 1>| { acc.add_dense(&v); }),
//!     ],
//!     |acc| acc.load().as_limbs().to_vec(),
//! );
//! assert_eq!(report.outcomes.len(), 1);
//! assert!(report.executions > 1);
//! ```

mod atomic;
mod explore;
mod sched;
mod sync;

pub use atomic::ModelAtomicU64;
pub use explore::{binomial, Failure, Model, Report, ThreadBody};
pub use sync::{declare_lock_order, ModelCondvar, ModelMutex, ModelMutexGuard, ModelSyncShim};

/// An HP accumulator whose atomics are model-checked virtual cells: the
/// *real* [`oisum_core::AtomicHpImpl`] deposit/carry/poison code, every
/// atomic step a scheduling point.
pub type ModelAtomicHp<const N: usize, const K: usize> =
    oisum_core::AtomicHpImpl<ModelAtomicU64, N, K>;
