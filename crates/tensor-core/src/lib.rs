//! Tensor and dense linear-algebra substrate for the unified sparse tensor
//! reproduction (Liu et al., CLUSTER 2017).
//!
//! This crate provides everything the paper assumes as given:
//!
//! * [`DenseMatrix`] — row-major single-precision dense matrices (the factor
//!   matrices of tensor decompositions) with the product operations the paper
//!   uses (Khatri-Rao, Hadamard, Gram),
//! * [`linalg`] — the small dense solvers CP-ALS needs in place of CUBLAS:
//!   Cholesky, symmetric Jacobi eigendecomposition, Moore–Penrose
//!   pseudo-inverse,
//! * [`SparseTensorCoo`] — arbitrary-order coordinate-format sparse tensors
//!   with mode-ordered sorting, coalescing and fiber/slice statistics,
//! * [`SemiSparseTensor`] — the sCOO-style semi-sparse output of TTM (dense
//!   along one mode),
//! * [`ops`] — sequential reference implementations of TTM, MTTKRP and TTMc
//!   used as correctness oracles by every optimized kernel in the workspace,
//! * [`datasets`] — seeded synthetic generators standing in for the FROSTT
//!   datasets of the paper's Table IV, plus a FROSTT `.tns` reader/writer in
//!   [`io`].

pub mod approx;
pub mod coo;
pub mod datasets;
pub mod io;
pub mod linalg;
pub mod matricize;
pub mod matrix;
pub mod ops;
pub mod semisparse;
pub mod stats;

pub use coo::SparseTensorCoo;
pub use datasets::{DatasetInfo, DatasetKind};
pub use matricize::{matricize, MatricizeError};
pub use matrix::DenseMatrix;
pub use semisparse::SemiSparseTensor;

/// Index type for tensor coordinates.
///
/// The paper stores one 32-bit integer per product-mode coordinate; using
/// `u32` throughout keeps the storage-cost model (Table II) byte-exact.
pub type Idx = u32;

/// Value type for tensor non-zeros and factor matrices (the paper uses
/// single precision).
pub type Val = f32;
