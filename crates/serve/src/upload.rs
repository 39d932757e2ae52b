//! What crosses PCIe before a tensor-op kernel runs: the touched rows of
//! the request's factor matrices.
//!
//! A request moves only its *product-mode* factors — the ones its kernel
//! reads. SpTTM moves `U_n`; SpMTTKRP and SpTTMc move every factor but the
//! operating mode's (SpMTTKRP's kernel ignores its mode-`n` slot, which
//! here aliases a product factor instead of costing an upload). Every
//! serving plan's format is built over compact product-mode coordinates
//! ([`fcoo::compact_tensor`]), so each factor goes up as exactly its
//! touched rows: one `touched × R` matrix gathered on the host. The byte
//! count depends only on the tensor and the rank, so [`FactorPlan`] sizes
//! the request's device bytes and the shed rule's transfer term before
//! admission, and [`upload`] carries it out.

use fcoo::{DeviceMatrix, TensorOp};
use gpu_sim::{GpuDevice, OutOfMemory};
use std::cmp::Ordering;
use tensor_core::DenseMatrix;

/// Microseconds a host↔device copy of `bytes` takes at `pcie_gbs` GB/s
/// (1 GB/s = 10³ bytes/µs).
pub(crate) fn transfer_us(bytes: usize, pcie_gbs: f64) -> f64 {
    bytes as f64 / (pcie_gbs * 1e3)
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

/// Rows `rows` of `host`, in order: the compact factor a format over
/// compact coordinates indexes.
pub(crate) fn gather_rows(host: &DenseMatrix, rows: &[u32]) -> DenseMatrix {
    let mut data = Vec::with_capacity(rows.len() * host.cols());
    for &row in rows {
        data.extend_from_slice(host.row(row as usize));
    }
    DenseMatrix::from_vec(rows.len(), host.cols(), data)
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
            TensorOp::SpMttkrp { mode } => mttkrp_refs(&self.matrices, mode, self.order),
            TensorOp::SpTtm { .. } | TensorOp::SpTtmc { .. } => self.matrices.iter().collect(),
        }
    }

    /// Output columns the request's kernel produces.
    pub(crate) fn output_cols(&self) -> usize {
        match self.op {
            TensorOp::SpTtmc { .. } => self.matrices.iter().map(DeviceMatrix::cols).product(),
            TensorOp::SpTtm { .. } | TensorOp::SpMttkrp { .. } => self.matrices[0].cols(),
        }
    }

    /// Bytes the upload moved host→device.
    pub(crate) fn bytes(&self) -> usize {
        self.matrices.iter().map(|m| m.rows() * m.cols() * 4).sum()
    }
}

/// SpMTTKRP's factor arguments from its `order - 1` product-mode factors,
/// ascending: one per tensor mode, the ignored mode-`mode` slot aliasing
/// the first product factor.
pub(crate) fn mttkrp_refs(
    products: &[DeviceMatrix],
    mode: usize,
    order: usize,
) -> Vec<&DeviceMatrix> {
    (0..order)
        .map(|m| match m.cmp(&mode) {
            Ordering::Less => &products[m],
            Ordering::Equal => &products[0],
            Ordering::Greater => &products[m - 1],
        })
        .collect()
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
            DeviceMatrix::upload(device.memory(), &gather_rows(&host, &touched[m.mode]))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DeviceFactors {
        op: plan.op,
        order: touched.len(),
        matrices,
    })
}
