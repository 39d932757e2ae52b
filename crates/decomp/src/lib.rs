//! Complete tensor-decomposition algorithms built on the unified kernels.
//!
//! * [`cp_als`] — CP decomposition by alternating least squares (the paper's
//!   Algorithm 1), with the MTTKRP pluggable through [`MttkrpEngine`]:
//!   the paper's [`UnifiedGpuEngine`] (per-mode [`ModePlan`]s on the
//!   simulated GPU, first GPU CP implementation per §V-E), [`SplattEngine`]
//!   (CSF on the CPU pool), or the sequential [`ReferenceEngine`].

pub mod cp;
pub mod engines;

pub use cp::{cp_als, CpError, CpModel, CpOptions, CpRun, DenseStage, MttkrpEngine, MttkrpError};
pub use engines::{ModePlan, ReferenceEngine, SplattEngine, UnifiedGpuEngine};
