//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index).
//!
//! The `repro` binary calls into this crate: each `figN_*` / `tableN_*`
//! function runs the relevant implementations on the synthetic FROSTT-like
//! datasets and returns rows ready for printing. GPU numbers are simulated
//! microseconds from the analytic device model; CPU numbers are wall-clock
//! microseconds.

pub mod experiments;
pub mod table;

pub use experiments::*;

use unified_tensors::prelude::*;

/// Default non-zero budget per dataset for the reproduction runs.
///
/// Overridable with the `REPRO_NNZ` environment variable. The paper's
/// datasets are 11M–144M non-zeros; the default keeps a full `repro all`
/// under a few minutes on a laptop while preserving every qualitative
/// relationship (see DESIGN.md on scaling).
pub fn default_nnz() -> usize {
    std::env::var("REPRO_NNZ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60_000)
}

/// The four paper datasets at the given budget, in Fig. 6 order
/// (nell1, delicious, nell2, brainq).
pub fn bench_datasets(nnz: usize) -> Vec<(SparseTensorCoo, DatasetInfo)> {
    datasets::paper_datasets(nnz, 2017)
}

/// Random factor matrices, one per tensor mode.
pub fn make_factors(tensor: &SparseTensorCoo, rank: usize, seed: u64) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, seed + m as u64))
        .collect()
}
