//! CPU parallel substrate for the unified sparse tensor reproduction.
//!
//! The paper's CPU baselines (ParTI-OMP, SPLATT) are OpenMP programs. This
//! crate provides the equivalent primitives on stable Rust without external
//! runtime dependencies beyond `crossbeam` and `parking_lot`:
//!
//! * [`Pool`] — a persistent fork-join worker pool (one `#pragma omp parallel`
//!   region per [`Pool::run`] call),
//! * [`parallel_for`] / [`parallel_for_chunked`] — `#pragma omp for` with
//!   dynamic chunk scheduling,
//! * [`par_chunks_mut`] — parallel iteration over disjoint mutable slice
//!   chunks.
//!
//! The same pool also drives the host-side execution of simulated GPU thread
//! blocks in the `gpu-sim` crate.

mod parallel;
mod pool;

pub use parallel::{par_chunks_mut, parallel_for, parallel_for_chunked};
pub use pool::{global_pool, Pool};

/// Basic information about the host CPU, used when printing the platform
/// configuration (paper Table III).
#[derive(Debug, Clone)]
pub struct CpuInfo {
    /// Number of logical cores the pool will use by default.
    pub logical_cores: usize,
    /// Number of worker threads in the global pool.
    pub pool_threads: usize,
}

/// Queries host CPU information.
pub fn cpu_info() -> CpuInfo {
    CpuInfo {
        logical_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        pool_threads: global_pool().num_threads(),
    }
}
