//! What crosses PCIe before a tensor-op kernel runs: the touched rows of
//! the request's factor matrices.
//!
//! A request moves only its *product-mode* factors — the ones its kernel
//! reads. SpTTM moves `U_n`; SpMTTKRP and SpTTMc move every factor but the
//! operating mode's (SpMTTKRP's kernel ignores its mode-`n` slot, which
//! here aliases a product factor instead of costing an upload). Every
//! serving plan's format is built over compact product-mode coordinates
//! ([`fcoo::compact_tensor`]), so each factor goes up as exactly its
//! touched rows: one `touched × R` matrix gathered on the host
//! ([`fcoo::gather_rows`]). The byte
//! count depends only on the tensor and the rank, so [`FactorPlan`] sizes
//! the request's device bytes and the shed rule's transfer term before
//! admission, and the crate-private `upload` carries it out.

use fcoo::{ColumnTiling, DeviceMatrix, Fcoo, TensorOp};
use gpu_sim::{GpuDevice, OutOfMemory};
use tensor_core::DenseMatrix;

/// Host↔device transfer bandwidth in GB/s (PCIe 3.0 x16 ≈ 12).
const PCIE_GBS: f64 = 12.0;

/// Microseconds a host↔device copy of `bytes` takes over PCIe
/// (1 GB/s = 10³ bytes/µs).
pub fn transfer_us(bytes: usize) -> f64 {
    bytes as f64 / (PCIE_GBS * 1e3)
}

/// Deterministic per-mode factor seed derivation, shared with the one-shot
/// reference so served and reference runs see identical factor matrices.
pub fn factor_seed_for_mode(factor_seed: u64, mode: usize) -> u64 {
    factor_seed
        .wrapping_add((mode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(1)
}

/// The factors `op` reads, in ascending mode order.
fn product_modes(op: TensorOp, order: usize) -> Vec<usize> {
    match op {
        TensorOp::SpTtm { mode } => vec![mode],
        TensorOp::SpMttkrp { mode } | TensorOp::SpTtmc { mode } => {
            (0..order).filter(|&m| m != mode).collect()
        }
    }
}

/// How one factor crosses PCIe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorMove {
    /// Tensor mode the factor belongs to.
    pub mode: usize,
    /// Rows of the full host factor (the mode's size).
    pub rows: usize,
    /// Rows the tensor's non-zeros touch (the mode's distinct coordinates):
    /// the rows that go up.
    pub touched: usize,
}

/// The factor uploads of one tensor-op request, decided before anything is
/// allocated.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorPlan {
    /// The operation the factors feed.
    pub op: TensorOp,
    /// Factor rank (columns).
    pub rank: usize,
    /// One entry per product mode, ascending.
    pub moves: Vec<FactorMove>,
}

impl FactorPlan {
    /// The compact uploads of every product-mode factor of `op`.
    /// `touched[m]` holds mode `m`'s sorted distinct coordinates.
    pub fn new(op: TensorOp, shape: &[usize], touched: &[Vec<u32>], rank: usize) -> FactorPlan {
        let moves = product_modes(op, shape.len())
            .into_iter()
            .map(|mode| FactorMove {
                mode,
                rows: shape[mode],
                touched: touched[mode].len(),
            })
            .collect();
        FactorPlan { op, rank, moves }
    }

    /// Bytes the uploads move host→device.
    pub fn h2d_bytes(&self) -> usize {
        self.device_bytes()
    }

    /// Device bytes of the compact factors the kernel reads.
    pub fn device_bytes(&self) -> usize {
        self.moves.iter().map(|m| m.touched * self.rank * 4).sum()
    }

    /// Device bytes the request holds beyond its cached format, given its
    /// kernel's output buffer size: the compact factors, the output buffer
    /// and allocator slack.
    pub fn transient_bytes(&self, output_bytes: usize) -> usize {
        self.device_bytes() + output_bytes + 1024
    }
}

/// Bytes of the unified kernel's output over `fcoo` at `rank`: one row per
/// segment for every operation. The request's device buffer (see
/// [`FactorPlan::transient_bytes`]) and what a replay copies back.
pub fn output_bytes(fcoo: &Fcoo, rank: usize) -> usize {
    let product_modes = fcoo.classification.product_modes.len();
    rows_bytes(fcoo.op, product_modes, fcoo.segments(), rank)
}

/// Bytes of `segments` output rows of `op` at `rank` with `product_modes`
/// gather modes: [`output_bytes`] of every format with that many segments,
/// whatever its kind or threadlen.
pub(crate) fn rows_bytes(
    op: TensorOp,
    product_modes: usize,
    segments: usize,
    rank: usize,
) -> usize {
    segments * ColumnTiling::for_op(op, &vec![rank; product_modes]).columns * 4
}

/// A request's compact factors resident on the device.
pub(crate) struct DeviceFactors {
    op: TensorOp,
    order: usize,
    /// One matrix per product mode, ascending.
    matrices: Vec<DeviceMatrix>,
}

impl DeviceFactors {
    /// The factors in the kernels' argument convention: `[U]` for SpTTM,
    /// one matrix per tensor mode for SpMTTKRP (the operating mode's slot,
    /// which the kernel ignores, aliases the first product factor), one per
    /// product mode for SpTTMc.
    pub(crate) fn refs(&self) -> Vec<&DeviceMatrix> {
        match self.op {
            TensorOp::SpMttkrp { mode } => fcoo::mttkrp_refs(&self.matrices, mode, self.order),
            TensorOp::SpTtm { .. } | TensorOp::SpTtmc { .. } => self.matrices.iter().collect(),
        }
    }

    /// Bytes the upload moved host→device.
    pub(crate) fn bytes(&self) -> usize {
        self.matrices.iter().map(|m| m.rows() * m.cols() * 4).sum()
    }
}

/// Builds the request's host factors (seeded per mode) and uploads each
/// product-mode factor's touched rows as `plan` says.
pub(crate) fn upload(
    device: &GpuDevice,
    plan: &FactorPlan,
    touched: &[Vec<u32>],
    factor_seed: u64,
) -> Result<DeviceFactors, OutOfMemory> {
    let matrices = plan
        .moves
        .iter()
        .map(|m| {
            let host =
                DenseMatrix::random(m.rows, plan.rank, factor_seed_for_mode(factor_seed, m.mode));
            DeviceMatrix::upload(device.memory(), &fcoo::gather_rows(&host, &touched[m.mode]))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DeviceFactors {
        op: plan.op,
        order: touched.len(),
        matrices,
    })
}
