//! ParTI-GPU-style baselines (Li et al. \[13\], \[18\]), re-implemented on the
//! shared simulator.
//!
//! Two design decisions — both criticized by the paper — characterize these
//! kernels and drive every Fig. 6–9 comparison:
//!
//! * **fiber-centric parallelism with rank-shaped 2-D thread blocks**: each
//!   thread walks one fiber for one factor column; block shape is
//!   `(512 / min(R, 32), min(R, 32))`. Unequal fiber lengths produce warp
//!   divergence; fiber counts bound the launch width (brainq mode-2 has just
//!   540 fibers, §V-B); per-element loads are duplicated across the rank
//!   lanes and strided across the fiber lanes;
//! * **two-step SpMTTKRP with a semi-sparse intermediate**: `Y = X ×₃ C`
//!   is materialized (the memory blow-up of Fig. 9, out-of-memory on
//!   nell1/delicious), then reduced into `M` with per-element atomics on the
//!   divided output slices (§III-B).

use crate::parti_omp::SortedCoo;
use gpu_sim::memory::DeviceBuffer;
use gpu_sim::{GpuDevice, KernelStats, OutOfMemory};
use tensor_core::{DenseMatrix, Idx, SemiSparseTensor, SparseTensorCoo};

/// Threads per 2-D ParTI block.
const PARTI_BLOCK_THREADS: usize = 512;

/// The ParTI block shape for a given rank: `(threads_x, threads_y)`.
///
/// Follows the paper's description literally: "when the number of threads is
/// 512 in a two-dimensional thread block and rank is 32, the shape of the
/// two-dimensional thread block will be (16, 32)" — the y dimension tracks
/// the rank, which is exactly why this baseline's shape (and memory
/// behaviour) changes with the rank.
fn block_shape(rank: usize) -> (usize, usize) {
    let threads_y = rank.clamp(1, PARTI_BLOCK_THREADS);
    let threads_x = (PARTI_BLOCK_THREADS / threads_y).max(1);
    (threads_x, threads_y)
}

/// Step-1 state kept resident on the device, as ParTI keeps its semi-sparse
/// intermediate between the two kernels of its SpMTTKRP.
struct FiberSpttmDevice {
    /// `nfibs × R` fiber results (the semi-sparse intermediate's values).
    out: DeviceBuffer<f32>,
    /// Tensor values, kept resident for the operation's lifetime.
    _values: DeviceBuffer<f32>,
    /// Product-mode indices.
    _k_indices: DeviceBuffer<u32>,
    /// Fiber start offsets.
    _group_ptr: DeviceBuffer<u32>,
    /// The dense matrix of step 1.
    _u: DeviceBuffer<f32>,
    stats: KernelStats,
}

fn spttm_fiber_device(
    device: &GpuDevice,
    prepared: &SortedCoo,
    u_host: &DenseMatrix,
) -> Result<FiberSpttmDevice, OutOfMemory> {
    assert!(
        prepared.fiber_groups,
        "SortedCoo must be built with for_spttm"
    );
    let tensor = &prepared.tensor;
    let mode = prepared.mode;
    assert_eq!(
        u_host.rows(),
        tensor.shape()[mode],
        "matrix rows must match product-mode size"
    );
    let r = u_host.cols();
    let nfibs = prepared.groups();

    let memory = device.memory();
    let values = memory.alloc_from_slice(tensor.values())?;
    let k_indices = memory.alloc_from_slice(tensor.mode_indices(mode))?;
    let group_ptr: Vec<u32> = prepared.group_ptr.iter().map(|&p| p as u32).collect();
    let group_ptr = memory.alloc_from_slice(&group_ptr)?;
    let u = memory.alloc_from_slice(u_host.data())?;
    let out = memory.alloc_zeroed::<f32>(nfibs * r)?;

    let stats = run_fiber_kernel(
        device,
        nfibs,
        r,
        &group_ptr,
        &values,
        &k_indices,
        &u,
        u_host.cols(),
        &out,
        None,
    );
    Ok(FiberSpttmDevice {
        out,
        _values: values,
        _k_indices: k_indices,
        _group_ptr: group_ptr,
        _u: u,
        stats,
    })
}

/// Fiber-centric SpTTM on the simulated GPU.
///
/// `prepared` must come from [`SortedCoo::for_spttm`]. Returns the
/// semi-sparse result and kernel statistics.
pub fn spttm_fiber_gpu(
    device: &GpuDevice,
    prepared: &SortedCoo,
    u_host: &DenseMatrix,
) -> Result<(SemiSparseTensor, KernelStats), OutOfMemory> {
    let step = spttm_fiber_device(device, prepared, u_host)?;
    let tensor = &prepared.tensor;
    let mode = prepared.mode;
    let r = u_host.cols();
    let nfibs = prepared.groups();
    let mut result = SemiSparseTensor::new(tensor.shape().to_vec(), mode, r);
    let host_values = step.out.into_vec();
    let index_modes: Vec<usize> = (0..tensor.order()).filter(|&m| m != mode).collect();
    for g in 0..nfibs {
        let first = prepared.group_ptr[g];
        let coord: Vec<Idx> = index_modes
            .iter()
            .map(|&m| tensor.mode_indices(m)[first])
            .collect();
        result.push_fiber(&coord, &host_values[g * r..(g + 1) * r]);
    }
    Ok((result, step.stats))
}

/// The shared fiber-walk kernel. When `atomic_target` is `Some((m, rows))`,
/// results are atomically accumulated into `m` at the per-fiber output rows
/// in `rows` (step 2 of the two-step MTTKRP); otherwise each fiber writes its
/// own output row in `out`.
#[allow(clippy::too_many_arguments)]
fn run_fiber_kernel(
    device: &GpuDevice,
    nfibs: usize,
    rank: usize,
    group_ptr: &DeviceBuffer<u32>,
    values: &DeviceBuffer<f32>,
    k_indices: &DeviceBuffer<u32>,
    u: &DeviceBuffer<f32>,
    u_cols: usize,
    out: &DeviceBuffer<f32>,
    atomic_target: Option<(&DeviceBuffer<f32>, &[u32])>,
) -> KernelStats {
    let (threads_x, threads_y) = block_shape(rank);
    let cols_per_thread = rank.div_ceil(threads_y);
    let grid_x = nfibs.div_ceil(threads_x);
    device.launch((grid_x, 1), PARTI_BLOCK_THREADS, |ctx| {
        let warp = ctx.warp_size();
        let mut read_addrs: Vec<u64> = Vec::with_capacity(warp);
        let mut factor_addrs: Vec<u64> = Vec::with_capacity(warp);
        let mut write_addrs: Vec<u64> = Vec::with_capacity(warp);
        let mut atomic_batch: Vec<(usize, f32)> = Vec::with_capacity(warp);
        let mut lane_acc = vec![0.0f32; warp * cols_per_thread];
        let block_x = ctx.block_x();
        for w in 0..ctx.warps_per_block() {
            // Lane → (tx, ty) with x fastest, CUDA-style.
            let lane_fiber = |lane: usize| {
                let linear = w * warp + lane;
                let tx = linear % threads_x;
                ctx_fiber(block_x, threads_x, tx)
            };
            let lane_ty = |lane: usize| (w * warp + lane) / threads_x;
            let any_active =
                (0..warp).any(|lane| lane_fiber(lane) < nfibs && lane_ty(lane) < threads_y);
            if !any_active {
                continue;
            }
            ctx.begin_warp();
            // Fiber lengths per lane → divergence.
            let lens: Vec<u64> = (0..warp)
                .map(|lane| {
                    let fi = lane_fiber(lane);
                    if fi < nfibs && lane_ty(lane) < threads_y {
                        (group_ptr.get(fi + 1) - group_ptr.get(fi)) as u64
                    } else {
                        0
                    }
                })
                .collect();
            let max_len = lens.iter().copied().max().unwrap_or(0);
            ctx.diverged_loop(&lens, 2);
            lane_acc.iter_mut().for_each(|a| *a = 0.0);
            for it in 0..max_len {
                read_addrs.clear();
                for (lane, &len) in lens.iter().enumerate() {
                    if it < len {
                        let fi = lane_fiber(lane);
                        let nz = group_ptr.get(fi) as usize + it as usize;
                        read_addrs.push(values.addr(nz));
                        read_addrs.push(k_indices.addr(nz));
                    }
                }
                ctx.read_global(&read_addrs);
                for c in 0..cols_per_thread {
                    factor_addrs.clear();
                    for lane in 0..warp {
                        if it >= lens[lane] {
                            continue;
                        }
                        let fi = lane_fiber(lane);
                        let ty = lane_ty(lane);
                        let col = ty + c * threads_y;
                        if col >= rank {
                            continue;
                        }
                        let nz = group_ptr.get(fi) as usize + it as usize;
                        let k = k_indices.get(nz) as usize;
                        factor_addrs.push(u.addr(k * u_cols + col));
                        lane_acc[lane * cols_per_thread + c] +=
                            values.get(nz) * u.get(k * u_cols + col);
                    }
                    if !factor_addrs.is_empty() {
                        // The dense matrix is reused across fibers: traffic
                        // stays in L2 when it fits.
                        ctx.read_global_ws(&factor_addrs, u.len() * 4);
                        ctx.compute(2);
                    }
                }
            }
            // Write or atomically accumulate the per-thread results.
            write_addrs.clear();
            atomic_batch.clear();
            for lane in 0..warp {
                if lens[lane] == 0 {
                    continue;
                }
                let fi = lane_fiber(lane);
                let ty = lane_ty(lane);
                for c in 0..cols_per_thread {
                    let col = ty + c * threads_y;
                    if col >= rank {
                        continue;
                    }
                    let sum = lane_acc[lane * cols_per_thread + c];
                    match atomic_target {
                        None => {
                            let index = fi * rank + col;
                            // SAFETY: each (fiber, column) pair is owned by
                            // exactly one thread.
                            unsafe { out.write(index, sum) };
                            write_addrs.push(out.addr(index));
                        }
                        Some((_, rows)) => {
                            let index = rows[fi] as usize * rank + col;
                            atomic_batch.push((index, sum));
                        }
                    }
                }
            }
            if !write_addrs.is_empty() {
                ctx.write_global(&write_addrs);
            }
            if let Some((m, _)) = atomic_target {
                for chunk in atomic_batch.chunks(warp) {
                    ctx.atomic_add_f32(m, chunk);
                }
            }
        }
    })
}

#[inline]
fn ctx_fiber(block_x: usize, threads_x: usize, tx: usize) -> usize {
    block_x * threads_x + tx
}

/// ParTI-GPU two-step SpMTTKRP on a 3-order tensor (see module docs).
///
/// Returns the dense result, the merged statistics of both kernels, and the
/// device-memory peak observed during the operation (for Fig. 9).
pub fn spmttkrp_two_step_gpu(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    mode: usize,
    factors: &[&DenseMatrix],
) -> Result<(DenseMatrix, KernelStats, usize), OutOfMemory> {
    assert_eq!(tensor.order(), 3, "ParTI two-step baseline is 3-order");
    assert_eq!(factors.len(), 3, "one factor per mode required");
    let product_modes: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
    let (first_product, second_product) = (product_modes[0], product_modes[1]);
    let r = factors[first_product].cols();
    assert_eq!(factors[second_product].cols(), r, "factor rank mismatch");
    let memory = device.memory();
    memory.reset_peak();

    // Step 1: Y = X ×(second_product) C, fiber-centric, materialized. The
    // device state (intermediate values, tensor arrays, factor) stays
    // resident across both kernels, exactly as in ParTI — this coexistence
    // is what blows up the memory footprint (Fig. 9) and produces the
    // out-of-memory failures on nell1/delicious.
    let prepared = SortedCoo::for_spttm(tensor, second_product);
    let step1 = spttm_fiber_device(device, &prepared, factors[second_product])?;
    let step1_stats = step1.stats.clone();
    let y_values = &step1.out;

    // Step 2: M(i,:) += Y(i, j, :) ∗ B(j, :) with atomics on M.
    // The intermediate's fibers are indexed by (mode, first_product) coords,
    // read off the sorted tensor's group starts.
    let nfibs = prepared.groups();
    let mut out_rows: Vec<u32> = Vec::with_capacity(nfibs);
    let mut b_rows: Vec<u32> = Vec::with_capacity(nfibs);
    for g in 0..nfibs {
        let first = prepared.group_ptr[g];
        out_rows.push(prepared.tensor.mode_indices(mode)[first]);
        b_rows.push(prepared.tensor.mode_indices(first_product)[first]);
    }
    let b = memory.alloc_from_slice(factors[first_product].data())?;
    let rows = tensor.shape()[mode];
    let m = memory.alloc_zeroed::<f32>(rows * r)?;
    let b_rows_dev = memory.alloc_from_slice(&b_rows)?;

    let (threads_x, threads_y) = block_shape(r);
    let cols_per_thread = r.div_ceil(threads_y);
    let grid_x = nfibs.div_ceil(threads_x);
    let b_cols = factors[first_product].cols();
    let step2_stats = device.launch((grid_x, 1), PARTI_BLOCK_THREADS, |ctx| {
        let warp = ctx.warp_size();
        let block_x = ctx.block_x();
        let mut y_addrs: Vec<u64> = Vec::with_capacity(warp);
        let mut b_addrs: Vec<u64> = Vec::with_capacity(warp);
        let mut atomic_batch: Vec<(usize, f32)> = Vec::with_capacity(warp);
        for w in 0..ctx.warps_per_block() {
            let mut any = false;
            for lane in 0..warp {
                let linear = w * warp + lane;
                let fi = block_x * threads_x + linear % threads_x;
                if fi < nfibs && linear / threads_x < threads_y {
                    any = true;
                }
            }
            if !any {
                continue;
            }
            ctx.begin_warp();
            for c in 0..cols_per_thread {
                y_addrs.clear();
                b_addrs.clear();
                atomic_batch.clear();
                for lane in 0..warp {
                    let linear = w * warp + lane;
                    let tx = linear % threads_x;
                    let ty = linear / threads_x;
                    let fi = block_x * threads_x + tx;
                    if fi >= nfibs || ty >= threads_y {
                        continue;
                    }
                    let col = ty + c * threads_y;
                    if col >= r {
                        continue;
                    }
                    let j = b_rows_dev.get(fi) as usize;
                    y_addrs.push(y_values.addr(fi * r + col));
                    b_addrs.push(b.addr(j * b_cols + col));
                    let contribution = y_values.get(fi * r + col) * b.get(j * b_cols + col);
                    atomic_batch.push((out_rows[fi] as usize * r + col, contribution));
                }
                if y_addrs.is_empty() {
                    continue;
                }
                // The intermediate is streamed once (DRAM); the factor is
                // reused and L2-resident when it fits.
                ctx.read_global(&y_addrs);
                ctx.read_global_ws(&b_addrs, b.len() * 4);
                ctx.compute(2);
                for chunk in atomic_batch.chunks(warp) {
                    ctx.atomic_add_f32(&m, chunk);
                }
            }
        }
    });

    let peak = memory.peak_bytes();
    let mut stats = step1_stats;
    stats.merge(&step2_stats);
    Ok((DenseMatrix::from_vec(rows, r, m.into_vec()), stats, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::ops;

    fn factors_for(tensor: &SparseTensorCoo, r: usize, seed: u64) -> Vec<DenseMatrix> {
        tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &size)| DenseMatrix::random(size, r, seed + m as u64))
            .collect()
    }

    #[test]
    fn fiber_gpu_spttm_matches_reference_all_modes() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 60);
        for mode in 0..3 {
            let prepared = SortedCoo::for_spttm(&tensor, mode);
            let u = DenseMatrix::random(tensor.shape()[mode], 16, 2);
            let (result, stats) = spttm_fiber_gpu(&device, &prepared, &u).unwrap();
            let reference = ops::spttm(&tensor, mode, &u);
            let diff = result
                .max_abs_diff(&reference)
                .expect("fiber sets must match");
            assert!(diff < 1e-3, "mode {mode} diff {diff}");
            assert!(stats.time_us > 0.0);
        }
    }

    #[test]
    fn two_step_mttkrp_matches_reference_all_modes() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 6000, 61);
        let factors = factors_for(&tensor, 8, 4);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        for mode in 0..3 {
            let (result, _, peak) = spmttkrp_two_step_gpu(&device, &tensor, mode, &refs).unwrap();
            let reference = ops::spmttkrp(&tensor, mode, &refs);
            assert!(result.max_abs_diff(&reference) < 1e-3, "mode {mode}");
            assert!(peak > 0);
        }
    }

    #[test]
    fn skewed_fibers_cause_divergence_imbalance() {
        let device = GpuDevice::titan_x();
        let (skewed, _) = datasets::generate(DatasetKind::Nell1, 20_000, 62);
        let (uniform, _) = datasets::generate(DatasetKind::Uniform, 20_000, 62);
        let mut imbalances = Vec::new();
        for tensor in [&skewed, &uniform] {
            let prepared = SortedCoo::for_spttm(tensor, 2);
            let u = DenseMatrix::random(tensor.shape()[2], 16, 2);
            let (_, stats) = spttm_fiber_gpu(&device, &prepared, &u).unwrap();
            imbalances.push(stats.imbalance);
        }
        assert!(
            imbalances[0] > imbalances[1],
            "skewed imbalance {} should exceed uniform {}",
            imbalances[0],
            imbalances[1]
        );
    }

    #[test]
    fn two_step_uses_atomics() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 6000, 63);
        let factors = factors_for(&tensor, 8, 5);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let (_, stats, _) = spmttkrp_two_step_gpu(&device, &tensor, 0, &refs).unwrap();
        assert!(stats.atomics > 0);
        assert!(stats.atomic_conflict_cycles > 0);
    }

    #[test]
    fn intermediate_inflates_memory_peak() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 8000, 64);
        let factors = factors_for(&tensor, 16, 6);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let (_, _, peak) = spmttkrp_two_step_gpu(&device, &tensor, 0, &refs).unwrap();
        // The intermediate alone is nfibs × R floats; peak must exceed the
        // raw tensor + output considerably.
        let fibers = tensor.count_distinct(&[0, 1]);
        assert!(peak > fibers * 16 * 4);
    }

    #[test]
    fn two_step_ooms_on_scaled_device() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 10_000, 65);
        let device = GpuDevice::new(gpu_sim::DeviceConfig::titan_x_scaled_memory(5e-5));
        let factors = factors_for(&tensor, 16, 7);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        assert!(spmttkrp_two_step_gpu(&device, &tensor, 0, &refs).is_err());
    }
}
