//! Parameter tuning for `(BLOCK_SIZE, threadlen)` (paper §V, Fig. 5 and
//! Table V).
//!
//! Both the sparsity pattern and the partitioning scheme affect memory
//! behaviour, so the best configuration is found empirically by sweeping the
//! two parameters and timing the kernel on the simulated device.

use crate::device::{DeviceMatrix, FcooDevice};
use crate::format::{Fcoo, SortedFcoo};
use crate::kernels::{self, GatherLayout, LaunchConfig};
use crate::modes::TensorOp;
use gpu_sim::GpuDevice;
use tensor_core::{DenseMatrix, SparseTensorCoo};

/// The block sizes the paper sweeps (Fig. 5 x-axis).
pub const BLOCK_SIZES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// The per-thread non-zero counts the paper sweeps (Fig. 5 y-axis).
pub const THREADLENS: [usize; 6] = [8, 16, 24, 32, 48, 64];

/// One point of the tuning surface.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// Threads per block.
    pub block_size: usize,
    /// Non-zeros per thread.
    pub threadlen: usize,
    /// Simulated kernel time in microseconds.
    pub time_us: f64,
}

/// The full tuning surface plus the winning configuration.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Every measured `(BLOCK_SIZE, threadlen)` point.
    pub surface: Vec<TunePoint>,
    /// The fastest configuration.
    pub best: TunePoint,
    /// `(block_size, threadlen)` pairs the keep-filter removed before any
    /// launch was simulated (empty for unfiltered [`tune`]).
    pub pruned: Vec<(usize, usize)>,
}

impl TuneResult {
    /// The winning `(BLOCK_SIZE, threadlen)` pair, Table V style.
    pub fn best_pair(&self) -> (usize, usize) {
        (self.best.block_size, self.best.threadlen)
    }
}

/// Sweeps `(BLOCK_SIZE, threadlen)` for `op` on `tensor` with rank `rank`
/// and returns the surface and best point.
///
/// Uses the provided grids, or the paper's grids when `None`.
pub fn tune(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    block_sizes: Option<&[usize]>,
    threadlens: Option<&[usize]>,
) -> TuneResult {
    tune_with_filter(device, tensor, op, rank, block_sizes, threadlens, |_, _| {
        true
    })
}

/// [`tune`], but consulting `keep(&fcoo, block_size)` before each trial
/// launch. Pairs the filter rejects are recorded in
/// [`TuneResult::pruned`] and never simulated — the hook the static
/// analyzer uses to drop refuted or provably-dominated configurations from
/// the sweep (same winner, strictly fewer launches).
///
/// The preprocessed [`Fcoo`] is handed to the filter so it can reason about
/// the real partition count of each threadlen, not just the header.
pub fn tune_with_filter(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    block_sizes: Option<&[usize]>,
    threadlens: Option<&[usize]>,
    keep: impl Fn(&Fcoo, usize) -> bool,
) -> TuneResult {
    let block_sizes = block_sizes.unwrap_or(&BLOCK_SIZES);
    let threadlens = threadlens.unwrap_or(&THREADLENS);
    let factors: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &size)| DenseMatrix::random(size, rank, 1000 + m as u64))
        .collect();
    let mut surface = Vec::with_capacity(block_sizes.len() * threadlens.len());
    let mut pruned = Vec::new();
    // One sort serves every threadlen; only the partitioning differs.
    let sorted = SortedFcoo::new(tensor, op);
    for &threadlen in threadlens {
        let fcoo = sorted.fcoo(threadlen);
        let kept: Vec<usize> = block_sizes
            .iter()
            .copied()
            .filter(|&block_size| {
                let keep_it = keep(&fcoo, block_size);
                if !keep_it {
                    pruned.push((block_size, threadlen));
                }
                keep_it
            })
            .collect();
        if kept.is_empty() {
            continue;
        }
        let on_device = FcooDevice::upload(device.memory(), &fcoo)
            .expect("tuning tensor must fit on the device");
        for block_size in kept {
            let cfg = LaunchConfig::with_block_size(block_size);
            let time_us = run_once(device, &on_device, &factors, &cfg);
            surface.push(TunePoint {
                block_size,
                threadlen,
                time_us,
            });
        }
    }
    let best = surface
        .iter()
        .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
        .expect("the filter must keep at least one tuning configuration")
        .clone();
    TuneResult {
        surface,
        best,
        pruned,
    }
}

fn run_once(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    factors: &[DenseMatrix],
    cfg: &LaunchConfig,
) -> f64 {
    let uploaded: Vec<DeviceMatrix> = fcoo
        .op
        .factor_modes(factors.len())
        .into_iter()
        .map(|m| DeviceMatrix::upload(device.memory(), &factors[m]).expect("factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
    let (_, stats) =
        kernels::launch(device, fcoo, GatherLayout::Strided, &refs, cfg).expect("tuning launch");
    stats.time_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_core::datasets::{self, DatasetKind};

    #[test]
    fn tune_returns_full_surface_and_consistent_best() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 4000, 30);
        let result = tune(
            &device,
            &tensor,
            TensorOp::SpMttkrp { mode: 0 },
            8,
            Some(&[32, 128]),
            Some(&[8, 32]),
        );
        assert_eq!(result.surface.len(), 4);
        let min = result
            .surface
            .iter()
            .map(|p| p.time_us)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best.time_us, min);
        assert!(result
            .surface
            .iter()
            .all(|p| p.time_us.is_finite() && p.time_us > 0.0));
    }

    #[test]
    fn surface_is_not_flat() {
        // The whole point of Fig. 5: the parameters matter.
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 15_000, 31);
        let result = tune(
            &device,
            &tensor,
            TensorOp::SpTtm { mode: 2 },
            16,
            Some(&[32, 1024]),
            Some(&[8, 64]),
        );
        let times: Vec<f64> = result.surface.iter().map(|p| p.time_us).collect();
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0, f64::max);
        assert!(
            max > 1.05 * min,
            "tuning surface unexpectedly flat: {times:?}"
        );
    }

    #[test]
    fn tune_works_for_ttmc() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 32);
        let result = tune(
            &device,
            &tensor,
            TensorOp::SpTtmc { mode: 0 },
            4,
            Some(&[64]),
            Some(&[16]),
        );
        assert_eq!(result.best_pair(), (64, 16));
    }
}
