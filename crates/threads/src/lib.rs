//! # oisum-threads — shared-memory reduction runtime (OpenMP analog)
//!
//! The substrate behind the paper's Fig. 5: `p` processing elements each
//! reduce a contiguous slice of the input, then a master PE folds the `p`
//! partial sums. Three pieces:
//!
//! * [`method`] — the [`SumMethod`] trait making
//!   double/HP/Hallberg/Kahan/Neumaier/superaccumulator interchangeable in
//!   every substrate.
//! * [`reduce`] — real executions: serial, `p` OS threads with
//!   deterministic chunking, and a rayon work-stealing variant whose
//!   nondeterministic merge order demonstrates what the HP method is
//!   immune to.
//! * [`model`] — the calibrated strong-scaling model used to project the
//!   paper's multi-core curves from single-core measurements (see
//!   DESIGN.md §4 on the single-core substitution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod method;
pub mod model;
pub mod reduce;

pub use method::{
    BinnedMethod, DoubleMethod, HallbergMethod, HpMethod, KahanMethod, NeumaierMethod,
    SumMethod, SuperaccMethod,
};
pub use model::{calibrate, Calibration, StrongScalingModel};
pub use reduce::{sum_parallel, sum_rayon, sum_serial, RunResult};
