//! BF-COO: a bucketed, load-balanced F-COO variant (after the balanced
//! nonzero layout of *"Load-Balanced Sparse MTTKRP on GPUs"*,
//! arXiv:1904.03329).
//!
//! BF-COO keeps the F-COO payload — product-mode indices, values, bit
//! flags, start flags, partition pointers — **byte-identical** to
//! [`Fcoo`], so segment accumulation, serialization framing and the
//! carry-row out-of-core path are shared verbatim and outputs are
//! bit-exact across the two formats. What changes is the *gather
//! schedule*: instead of lane-strided factor reads (lane `l` touches
//! non-zeros `l·threadlen + i`), each warp walks its non-zero span in
//! aligned 32-element **runs** and issues one batched read per factor per
//! run. Because the format's sort order keeps index-mode coordinates
//! contiguous, consecutive non-zeros in a run mostly share factor rows,
//! and the read-only cache's per-batch line dedup collapses the batch to
//! the run's *distinct-row count*.
//!
//! That count is precomputed per run and per product mode into the
//! [`BfCoo::buckets`] metadata (one `u32` per aligned 32-non-zero run),
//! which the kernel streams alongside the tensor and the cost certifier
//! uses to bound each gather call by `min(live, dᶠ)` transactions instead
//! of F-COO's `live · |factors|`. On skewed (power-law) tensors the runs
//! sit inside long fibers, `dᶠ` is small and BF-COO's certified upper
//! bound drops below F-COO's; on uniform tensors `dᶠ ≈ 32` and the extra
//! bucket streams plus the per-run shuffle demux make F-COO the certified
//! winner — exactly the cross-format trade the planner arbitrates.

use crate::device::FcooDevice;
use crate::format::Fcoo;
use crate::modes::TensorOp;
use gpu_sim::memory::{DeviceBuffer, DeviceMemory};
use gpu_sim::OutOfMemory;
use tensor_core::{Idx, SparseTensorCoo};

/// Non-zeros per bucketed gather run. Warps start on 32-thread boundaries,
/// so every warp's non-zero span starts on a multiple of `RUN = 32` for any
/// threadlen and the per-warp runs align with these global runs.
pub const RUN: usize = 32;

/// A sparse tensor preprocessed into BF-COO: the F-COO payload plus
/// per-run distinct-row bucket metadata.
#[derive(Debug, Clone)]
pub struct BfCoo {
    /// The byte-identical F-COO payload (same sort order, flags, values).
    pub base: Fcoo,
    /// `buckets[p][run]`: the number of **distinct** coordinates of
    /// product mode `p` among non-zeros `[run·32, min((run+1)·32, nnz))`.
    /// One column per product mode, `⌈nnz/32⌉` entries each, every entry
    /// in `[1, min(32, run length)]`.
    pub buckets: Vec<Vec<u32>>,
}

/// Computes the exact per-run distinct-row counts for every product mode
/// of an F-COO payload. Exactness is load-bearing: the cost certifier's
/// `min(live, dᶠ)` gather bound is only sound when `dᶠ` is the true
/// distinct count, which is why the sanitizer's BF-COO lint recomputes
/// and compares these.
pub fn bucket_counts(base: &Fcoo) -> Vec<Vec<u32>> {
    run_distinct_counts(&base.product_indices)
}

/// [`bucket_counts`] over bare product-index columns: the counts depend on
/// the sort order alone, not on the partition size.
pub(crate) fn run_distinct_counts(product_indices: &[Vec<Idx>]) -> Vec<Vec<u32>> {
    product_indices
        .iter()
        .map(|column| {
            (0..column.len().div_ceil(RUN))
                .map(|run| {
                    let start = run * RUN;
                    let end = (start + RUN).min(column.len());
                    let mut rows = [0 as Idx; RUN];
                    let rows = &mut rows[..end - start];
                    rows.copy_from_slice(&column[start..end]);
                    rows.sort_unstable();
                    1 + rows.windows(2).filter(|pair| pair[0] != pair[1]).count() as u32
                })
                .collect()
        })
        .collect()
}

impl BfCoo {
    /// Preprocesses `tensor` for `op`: the F-COO build plus one
    /// distinct-count pass over the product indices.
    pub fn from_coo(tensor: &SparseTensorCoo, op: TensorOp, threadlen: usize) -> Self {
        Self::from_fcoo(Fcoo::from_coo(tensor, op, threadlen))
    }

    /// Wraps an existing F-COO payload, deriving the bucket metadata. This
    /// is how persisted plans rehydrate: only the F-COO stream is stored,
    /// the buckets are recomputed on decode.
    pub fn from_fcoo(base: Fcoo) -> Self {
        let buckets = bucket_counts(&base);
        BfCoo { base, buckets }
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.base.nnz()
    }

    /// Number of segments (output fibers/slices).
    pub fn segments(&self) -> usize {
        self.base.segments()
    }

    /// Number of thread partitions.
    pub fn partitions(&self) -> usize {
        self.base.partitions()
    }

    /// Number of aligned 32-non-zero runs.
    pub fn runs(&self) -> usize {
        self.nnz().div_ceil(RUN)
    }

    /// Bytes of the bucket metadata (`4 · |product modes| · ⌈nnz/32⌉`).
    pub fn bucket_bytes(&self) -> usize {
        self.buckets.len() * self.runs() * 4
    }

    /// All bytes of the executable format: the F-COO payload plus the
    /// bucket metadata. Admission sizing must use this, not the base's
    /// total, or the pool under-counts every BF-COO plan.
    pub fn total_bytes(&self) -> usize {
        self.base.storage().total_bytes() + self.bucket_bytes()
    }
}

/// BF-COO uploaded to the device: the F-COO buffers plus one bucket array
/// per product mode.
#[derive(Debug)]
pub struct BfCooDevice {
    /// The uploaded F-COO payload.
    pub base: FcooDevice,
    /// Per-product-mode distinct-row counts, one `u32` per run.
    pub buckets: Vec<DeviceBuffer<u32>>,
}

impl BfCooDevice {
    /// Transfers a host BF-COO instance to device memory.
    pub fn upload(memory: &DeviceMemory, bfcoo: &BfCoo) -> Result<Self, OutOfMemory> {
        Self::upload_parts(memory, &bfcoo.base, &bfcoo.buckets)
    }

    /// Uploads an F-COO payload and its bucket metadata, in that order.
    pub(crate) fn upload_parts(
        memory: &DeviceMemory,
        base: &Fcoo,
        buckets: &[Vec<u32>],
    ) -> Result<Self, OutOfMemory> {
        let base = FcooDevice::upload(memory, base)?;
        let buckets = buckets
            .iter()
            .map(|column| memory.alloc_from_slice(column))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BfCooDevice { base, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyFormatDevice, DeviceMatrix, LaunchConfig};
    use gpu_sim::GpuDevice;
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::DenseMatrix;

    /// The F-COO and BF-COO launch entries over one BF-COO instance.
    fn both_formats(device: &GpuDevice, bf: &BfCoo) -> (AnyFormatDevice, AnyFormatDevice) {
        let fc_dev = FcooDevice::upload(device.memory(), &bf.base).unwrap();
        let bf_dev = BfCooDevice::upload(device.memory(), bf).unwrap();
        (
            AnyFormatDevice::Fcoo(fc_dev),
            AnyFormatDevice::BfCoo(bf_dev),
        )
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn buckets_are_exact_distinct_counts() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 3000, 9);
        let bf = BfCoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        assert_eq!(bf.buckets.len(), bf.base.product_indices.len());
        for (column, bucket) in bf.base.product_indices.iter().zip(&bf.buckets) {
            assert_eq!(bucket.len(), bf.runs());
            for (run, &count) in bucket.iter().enumerate() {
                let start = run * RUN;
                let end = (start + RUN).min(bf.nnz());
                let mut rows: Vec<u32> = column[start..end].to_vec();
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(count as usize, rows.len(), "run {run}");
                assert!(count >= 1 && count as usize <= end - start);
            }
        }
    }

    #[test]
    fn storage_includes_bucket_metadata() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 10);
        let bf = BfCoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 1 }, 8);
        assert_eq!(bf.bucket_bytes(), 2 * bf.runs() * 4);
        assert_eq!(
            bf.total_bytes(),
            bf.base.storage().total_bytes() + bf.bucket_bytes()
        );
    }

    #[test]
    fn spttm_bit_exact_with_fcoo() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 11);
        let device = GpuDevice::titan_x();
        for mode in 0..3 {
            let bf = BfCoo::from_coo(&tensor, TensorOp::SpTtm { mode }, 8);
            let (fc_dev, bf_dev) = both_formats(&device, &bf);
            let u_host = DenseMatrix::random(tensor.shape()[mode], 16, 7);
            let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
            let cfg = LaunchConfig::default();
            let (reference, _) = fc_dev.spttm(&device, &u, &cfg).unwrap();
            let (result, stats) = bf_dev.spttm(&device, &u, &cfg).unwrap();
            assert_eq!(result.nfibs(), reference.nfibs());
            for fib in 0..result.nfibs() {
                assert_eq!(result.fiber_coord(fib), reference.fiber_coord(fib));
                assert_eq!(
                    bits(result.fiber(fib)),
                    bits(reference.fiber(fib)),
                    "mode {mode} fiber {fib}"
                );
            }
            assert!(stats.time_us > 0.0);
        }
    }

    #[test]
    fn spmttkrp_bit_exact_with_fcoo_across_toggles() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 2500, 12);
        let device = GpuDevice::titan_x();
        let bf = BfCoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
        let (fc_dev, bf_dev) = both_formats(&device, &bf);
        let factors: Vec<DeviceMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &size)| {
                let host = DenseMatrix::random(size, 8, 70 + m as u64);
                DeviceMatrix::upload(device.memory(), &host).unwrap()
            })
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        for cfg in [
            LaunchConfig::default(),
            LaunchConfig {
                use_rocache: false,
                ..Default::default()
            },
            LaunchConfig {
                use_segscan: false,
                ..Default::default()
            },
            LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
        ] {
            let (reference, _) = fc_dev.launch(&device, &refs, &cfg).unwrap();
            let (result, _) = bf_dev.launch(&device, &refs, &cfg).unwrap();
            assert_eq!(bits(result.data()), bits(reference.data()));
        }
    }

    #[test]
    fn spttmc_bit_exact_with_fcoo() {
        let (tensor, _) = datasets::generate(DatasetKind::Delicious, 2000, 13);
        let device = GpuDevice::titan_x();
        let bf = BfCoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 0 }, 8);
        let (fc_dev, bf_dev) = both_formats(&device, &bf);
        let a = DeviceMatrix::upload(
            device.memory(),
            &DenseMatrix::random(tensor.shape()[1], 4, 21),
        )
        .unwrap();
        let b = DeviceMatrix::upload(
            device.memory(),
            &DenseMatrix::random(tensor.shape()[2], 3, 22),
        )
        .unwrap();
        let cfg = LaunchConfig::default();
        let (reference, _) = fc_dev.launch(&device, &[&a, &b], &cfg).unwrap();
        let (result, _) = bf_dev.launch(&device, &[&a, &b], &cfg).unwrap();
        assert_eq!(bits(result.data()), bits(reference.data()));
    }

    /// Long-fiber power-law tensor: every run of 32 consecutive non-zeros
    /// sits inside one or two fibers, so the fiber-mode bucket counts stay
    /// tiny while a uniform scatter keeps every bucket near 32.
    fn skew_and_uniform_tensors() -> (SparseTensorCoo, SparseTensorCoo) {
        let (slices, jdim, kdim) = (400u32, 300u32, 2000u32);
        let mut entries = Vec::new();
        for s in 0..slices {
            let len = ((30_000.0 / f64::powf(s as f64 + 1.0, 1.3)) as u32).clamp(1, kdim);
            let j = (s * 7) % jdim;
            for t in 0..len {
                let k = (t * 13) % kdim;
                entries.push((vec![s, j, k], (s + t) as f32 * 0.001 + 1.0));
            }
        }
        let shape = vec![slices as usize, jdim as usize, kdim as usize];
        let skew = SparseTensorCoo::from_entries(shape.clone(), &entries);
        let n = skew.nnz() as u32;
        let mut uentries = Vec::new();
        for t in 0..n {
            let i = (t.wrapping_mul(2_654_435_761) >> 8) % slices;
            let j = (t.wrapping_mul(40_503) >> 4) % jdim;
            let k = t.wrapping_mul(9_973) % kdim;
            uentries.push((vec![i, j, k], t as f32 * 0.001 + 1.0));
        }
        let uniform = SparseTensorCoo::from_entries(shape, &uentries);
        (skew, uniform)
    }

    #[test]
    fn bucket_metadata_separates_skewed_from_uniform_tensors() {
        // The format's whole value proposition: on a long-fiber power-law
        // tensor the exact distinct-row counts prove each run's gather
        // touches a handful of factor rows, while a uniform scatter leaves
        // every bucket saturated. This metadata is what lets the certifier
        // bound BF-COO's gather cost below F-COO's `live` worst case.
        let (skew, uniform) = skew_and_uniform_tensors();
        let mean =
            |buckets: &[u32]| buckets.iter().map(|&b| b as f64).sum::<f64>() / buckets.len() as f64;
        let op = TensorOp::SpMttkrp { mode: 0 };
        let bf_skew = BfCoo::from_coo(&skew, op, 32);
        let bf_uniform = BfCoo::from_coo(&uniform, op, 32);
        // Product mode j: fibers pin j, so runs inside a fiber dedup to ~1.
        let skew_j = mean(&bf_skew.buckets[0]);
        let uniform_j = mean(&bf_uniform.buckets[0]);
        assert!(
            skew_j < 4.0,
            "skewed fiber-mode buckets should be tiny: {skew_j}"
        );
        assert!(
            uniform_j > 4.0 * skew_j,
            "uniform buckets {uniform_j} should dwarf skewed {skew_j}"
        );
        // Every bucket is a valid certificate bound: within [1, RUN].
        for buckets in bf_skew.buckets.iter().chain(&bf_uniform.buckets) {
            assert!(buckets.iter().all(|&b| (1..=RUN as u32).contains(&b)));
        }
    }

    #[test]
    fn upload_accounts_bucket_bytes() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 15);
        let bf = BfCoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let before = device.memory().live_bytes();
        let uploaded = BfCooDevice::upload(device.memory(), &bf).unwrap();
        let used = device.memory().live_bytes() - before;
        assert_eq!(used, bf.total_bytes());
        drop(uploaded);
        assert_eq!(device.memory().live_bytes(), before);
    }
}
