//! Device-resident F-COO and dense factor matrices.
//!
//! The paper preprocesses F-COO for every mode on the host and transfers the
//! results to the GPU once, before any kernel runs (§IV-D "Complete
//! tensor-based algorithms"). [`FcooDevice::upload`] is that transfer;
//! allocation failures surface as [`OutOfMemory`] rather than panics so the
//! harness can reproduce ParTI's OOM behaviour gracefully.

use crate::format::Fcoo;
use crate::modes::{ModeClassification, TensorOp};
use gpu_sim::memory::{DeviceBuffer, DeviceMemory};
use gpu_sim::OutOfMemory;
use std::sync::Arc;
use tensor_core::{DenseMatrix, Idx};

/// A dense matrix resident in simulated device memory (row-major).
#[derive(Debug)]
pub struct DeviceMatrix {
    buf: DeviceBuffer<f32>,
    rows: usize,
    cols: usize,
}

impl DeviceMatrix {
    /// Copies a host matrix to the device.
    pub fn upload(memory: &DeviceMemory, matrix: &DenseMatrix) -> Result<Self, OutOfMemory> {
        Ok(DeviceMatrix {
            buf: memory.alloc_from_slice(matrix.data())?,
            rows: matrix.rows(),
            cols: matrix.cols(),
        })
    }

    /// Allocates a zeroed device matrix.
    pub fn zeros(memory: &DeviceMemory, rows: usize, cols: usize) -> Result<Self, OutOfMemory> {
        Ok(DeviceMatrix {
            buf: memory.alloc_zeroed(rows * cols)?,
            rows,
            cols,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Device address of entry `(row, col)`.
    #[inline]
    pub fn addr(&self, row: usize, col: usize) -> u64 {
        self.buf.addr(row * self.cols + col)
    }

    /// Reads entry `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.buf.get(row * self.cols + col)
    }

    /// The raw device buffer (for atomic accumulation or plain writes).
    pub fn buffer(&self) -> &DeviceBuffer<f32> {
        &self.buf
    }

    /// Copies the matrix back to the host.
    pub fn download(&self) -> DenseMatrix {
        DenseMatrix::from_vec(self.rows, self.cols, self.buf.to_vec())
    }
}

/// F-COO uploaded to the device — exactly the arrays the kernels read —
/// plus the host-side metadata the launchers need to assemble outputs.
#[derive(Debug)]
pub struct FcooDevice {
    /// Operation the format was preprocessed for.
    pub op: TensorOp,
    /// Table I classification.
    pub classification: ModeClassification,
    /// Original tensor shape.
    pub shape: Vec<usize>,
    /// Non-zeros per thread partition.
    pub threadlen: usize,
    /// Non-zero count.
    pub nnz: usize,
    /// Segment count: the kernels' output rows.
    segments: usize,
    /// Product-mode coordinate buffers, one per product mode.
    pub product_indices: Vec<DeviceBuffer<u32>>,
    /// Non-zero values in segment order.
    pub values: DeviceBuffer<f32>,
    /// Packed segment-head bits (one per non-zero).
    pub bf: DeviceBuffer<u8>,
    /// Packed partition start flags.
    pub sf: DeviceBuffer<u8>,
    /// Global segment ordinal at each partition start.
    pub partition_first_segment: DeviceBuffer<u32>,
    /// The host format's per-segment index-mode coordinates, shared with it
    /// and never uploaded: the wrappers place each segment's output row with
    /// them.
    pub segment_coords_host: Arc<[Vec<Idx>]>,
}

impl FcooDevice {
    /// Transfers a host F-COO instance to device memory: the product-mode
    /// indices, values, `bf`, `sf` and partition pointers, whose bytes are
    /// exactly [`Fcoo::storage`]'s total.
    pub fn upload(memory: &DeviceMemory, fcoo: &Fcoo) -> Result<Self, OutOfMemory> {
        let product_indices = fcoo
            .product_indices
            .iter()
            .map(|column| memory.alloc_from_slice(column))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FcooDevice {
            op: fcoo.op,
            classification: fcoo.classification.clone(),
            shape: fcoo.shape.clone(),
            threadlen: fcoo.threadlen,
            nnz: fcoo.nnz(),
            segments: fcoo.segments(),
            product_indices,
            values: memory.alloc_from_slice(&fcoo.values)?,
            bf: memory.alloc_from_slice(fcoo.bf.bytes())?,
            sf: memory.alloc_from_slice(fcoo.sf.bytes())?,
            partition_first_segment: memory.alloc_from_slice(&fcoo.partition_first_segment)?,
            segment_coords_host: Arc::clone(&fcoo.segment_coords),
        })
    }

    /// Number of segments (output fibers/slices).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Number of thread partitions.
    pub fn partitions(&self) -> usize {
        self.partition_first_segment.len()
    }

    /// Reads segment-head bit `nz` from the packed device array.
    #[inline]
    pub fn head(&self, nz: usize) -> bool {
        self.bf.get(nz / 8) & (1 << (nz % 8)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuDevice;
    use tensor_core::datasets::{self, DatasetKind};

    #[test]
    fn upload_preserves_structure() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 1);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let on_device = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        assert_eq!(on_device.nnz, fcoo.nnz());
        assert_eq!(on_device.segments(), fcoo.segments());
        assert_eq!(on_device.partitions(), fcoo.partitions());
        for nz in 0..fcoo.nnz() {
            assert_eq!(on_device.head(nz), fcoo.bf.get(nz));
        }
        for (host, dev) in fcoo.product_indices.iter().zip(&on_device.product_indices) {
            assert_eq!(&dev.to_vec(), host);
        }
    }

    #[test]
    fn upload_accounts_device_memory() {
        let device = GpuDevice::titan_x();
        let before = device.memory().live_bytes();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 2);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let breakdown = fcoo.storage();
        let uploaded = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let used = device.memory().live_bytes() - before;
        assert_eq!(used, breakdown.total_bytes());
        // The coordinates are shared with the host format, not copied.
        assert!(Arc::ptr_eq(
            &uploaded.segment_coords_host,
            &fcoo.segment_coords
        ));
        drop(uploaded);
        assert_eq!(device.memory().live_bytes(), before);
    }

    #[test]
    fn upload_fails_gracefully_on_tiny_device() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 5000, 3);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 0 }, 8);
        // A device one byte short of the format refuses it; one that holds
        // exactly the format takes it.
        let bytes = fcoo.storage().total_bytes();
        let with_capacity = |capacity| {
            let mut config = gpu_sim::DeviceConfig::titan_x();
            config.memory_capacity = capacity;
            GpuDevice::new(config)
        };
        let tiny = with_capacity(bytes - 1);
        assert!(FcooDevice::upload(tiny.memory(), &fcoo).is_err());
        let exact = with_capacity(bytes);
        assert!(FcooDevice::upload(exact.memory(), &fcoo).is_ok());
    }

    #[test]
    fn device_matrix_round_trip() {
        let device = GpuDevice::titan_x();
        let host = DenseMatrix::random(17, 5, 99);
        let dev = DeviceMatrix::upload(device.memory(), &host).unwrap();
        assert_eq!(dev.download(), host);
        assert_eq!(dev.get(3, 2), host.get(3, 2));
        // Row-major addressing: consecutive columns are 4 bytes apart.
        assert_eq!(dev.addr(0, 1) - dev.addr(0, 0), 4);
        assert_eq!(dev.addr(1, 0) - dev.addr(0, 0), 20);
    }
}
