//! Multi-tenant tensor-operation serving over the simulated GPU.
//!
//! The paper's pipeline — preprocess a sparse tensor into F-COO, tune
//! `(BLOCK_SIZE, threadlen)`, run the unified kernel — is framed as a
//! one-shot batch job. This crate reframes it as a *service*: clients
//! register tensors once and submit operation requests (SpTTM, SpMTTKRP,
//! SpTTMc, or whole CP-ALS decompositions) against them, and the engine
//! amortizes every expensive step across requests:
//!
//! * [`plan::PlanCache`] — preprocessing and tuning happen once per
//!   (tensor, op, rank) and persist to disk for warm restarts;
//! * [`pool::DevicePool`] — uploaded formats stay resident with LRU
//!   eviction, and admission control queues jobs that do not fit instead of
//!   failing with out-of-memory;
//! * [`scheduler::Scheduler`] — independent jobs spread across simulated
//!   CUDA streams and devices, deterministically;
//! * [`engine::ServeEngine`] — ties the three together, batches same-plan
//!   same-factor requests, and reports per-request queue/exec/total latency
//!   plus per-stream utilization.
//!
//! Every served result is bit-exact with the one-shot API (the integration
//! tests and the engine's `verify` mode check this), so serving is purely a
//! performance reframing — never a numerical one.
//!
//! With deterministic fault injection enabled (the `fault_injection` field
//! of [`engine::ServeConfig`]), the engine additionally recovers from ECC
//! errors, launch/allocation failures, stream stalls and dropped atomics:
//! every attempt passes an integrity barrier (a full memory scrub), corrupted
//! attempts are retried with capped exponential backoff, repeatedly failing
//! requests degrade down a verified ladder (unified → two-step → host), and
//! repeat offenders trigger device quarantine or plan invalidation. See
//! `docs/FAULTS.md` for the full fault model.

#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod fingerprint;
pub mod ledger;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod profile;
pub mod protocol;
pub mod scheduler;
pub mod upload;
pub mod workload;

pub use engine::{
    one_shot_cp_reference, one_shot_reference, one_shot_tier_reference, FaultStats, FaultTolerance,
    JobOutput, OverloadStats, PcieStats, Rejection, ServeConfig, ServeEngine, ServeReport,
    ShedRecord,
};
pub use events::ProtocolEvent;
pub use fingerprint::tensor_fingerprint;
pub use ledger::PoolLedger;
pub use metrics::{ExecTier, LatencySummary, RequestProfile};
pub use plan::{Plan, PlanCache, PlanCacheStats, PlanKey, PlanSource};
pub use pool::{AdmitError, DevicePool, PoolStats, ReservationId};
pub use profile::{KernelProfile, KernelStatics, ServeProfile};
pub use scheduler::{Placement, Scheduler};
pub use workload::{open_loop, synthetic, Request, ServeOp, TensorSpec, Workload, WorkloadError};
