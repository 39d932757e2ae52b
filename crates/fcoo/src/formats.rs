//! The [`SparseFormat`] trait and runtime format dispatch (after the
//! level-based format interface of *"Format Abstraction for Sparse Tensor
//! Algebra Compilers"*, arXiv:1804.10112).
//!
//! Every serving format is an F-COO payload plus optional schedule
//! metadata, so the trait contract is small and checkable:
//!
//! * **header arithmetic** — `base()` exposes the F-COO payload whose
//!   `nnz`/`segments()`/`partitions()` derivations every layer (chunking,
//!   plan cache, sanitizer) reuses; a format may only *add* metadata
//!   derived from that payload, never alter it;
//! * **flag invariants** — because the payload is shared, the sanitizer's
//!   `check_fcoo` invariants hold for every format, and each format's own
//!   lint only has to validate its added metadata;
//! * **cost-envelope obligations** — each format has a certifier in
//!   `analyzer::cost` producing a sound `[lo, hi]` envelope for the same
//!   launch; cross-format plan selection minimizes the certified *upper*
//!   bound, so a format whose envelope is unsound corrupts planning, which
//!   is why the metadata the envelopes lean on (BF-COO's distinct-row
//!   buckets) is lint-checked for exactness.
//!
//! [`AnyFormat`]/[`AnyFormatDevice`] are the runtime-dispatch companions:
//! the serve plan cache stores an [`AnyFormat`] (host side, hashed and
//! persisted), the pool uploads it once into an [`AnyFormatDevice`], and
//! the engine launches through [`AnyFormatDevice::launch`] without naming
//! a concrete format anywhere: the operation comes from the format's
//! stored classification, the gather schedule from its kind.

use crate::bfcoo::{BfCoo, BfCooDevice};
use crate::device::{DeviceMatrix, FcooDevice};
use crate::format::Fcoo;
use crate::kernels::{self, GatherLayout, LaunchConfig};
use crate::modes::TensorOp;
use gpu_sim::memory::{DeviceBuffer, DeviceMemory};
use gpu_sim::{GpuDevice, KernelStats, OutOfMemory};
use std::fmt;
use std::sync::Arc;
use tensor_core::{DenseMatrix, SemiSparseTensor, SparseTensorCoo};

/// The serving formats the planner can choose between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FormatKind {
    /// The paper's flagged-coordinate format with lane-strided gathers.
    Fcoo,
    /// The bucketed, load-balanced variant with per-run gathers.
    BfCoo,
}

impl FormatKind {
    /// Every format, in tag order (the planner's sweep and tie-break
    /// order: F-COO wins ties).
    pub const ALL: [FormatKind; 2] = [FormatKind::Fcoo, FormatKind::BfCoo];

    /// The stable one-byte tag persisted in v3 plan files.
    pub fn tag(self) -> u8 {
        match self {
            FormatKind::Fcoo => 0,
            FormatKind::BfCoo => 1,
        }
    }

    /// Decodes a persisted tag; `None` for unknown (corrupt) tags.
    pub fn from_tag(tag: u8) -> Option<FormatKind> {
        match tag {
            0 => Some(FormatKind::Fcoo),
            1 => Some(FormatKind::BfCoo),
            _ => None,
        }
    }

    /// Short lowercase label for CLI matrices and profiling span names.
    pub fn label(self) -> &'static str {
        match self {
            FormatKind::Fcoo => "fcoo",
            FormatKind::BfCoo => "bfcoo",
        }
    }

    /// Device bytes of schedule metadata this format adds on top of an
    /// F-COO payload with `nnz` non-zeros and `product_modes` gather
    /// columns: zero for F-COO, one `u32` bucket per aligned run per
    /// product mode for BF-COO. Chunked serving budgets the rehydrated
    /// chunk upload with this instead of building each chunk's format
    /// twice; it must agree exactly with [`BfCoo::bucket_bytes`].
    pub fn metadata_bytes(self, nnz: usize, product_modes: usize) -> usize {
        match self {
            FormatKind::Fcoo => 0,
            FormatKind::BfCoo => product_modes * nnz.div_ceil(crate::bfcoo::RUN) * 4,
        }
    }

    /// Device bytes of this format over `nnz` non-zeros with
    /// `product_modes` gather columns at `threadlen`, from the sizes alone:
    /// exactly [`AnyFormat::storage_bytes`] of the format built there, so
    /// admission can size a format it has not built.
    pub fn storage_bytes(self, nnz: usize, product_modes: usize, threadlen: usize) -> usize {
        let partitions = nnz.div_ceil(threadlen);
        crate::format::StorageBreakdown::of(product_modes, nnz, partitions).total_bytes()
            + self.metadata_bytes(nnz, product_modes)
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The contract every serving format satisfies (see the module docs for
/// the three obligations).
pub trait SparseFormat {
    /// Which format this is.
    fn kind(&self) -> FormatKind;

    /// The shared F-COO payload. All header arithmetic
    /// (`nnz`/`segments`/`partitions`/chunk splitting) goes through this.
    fn base(&self) -> &Fcoo;

    /// Total bytes of the executable format **including** any schedule
    /// metadata — what admission sizing must charge.
    fn storage_bytes(&self) -> usize;

    /// Preprocesses a COO tensor into this format.
    fn build(tensor: &SparseTensorCoo, op: TensorOp, threadlen: usize) -> Self
    where
        Self: Sized;
}

impl SparseFormat for Fcoo {
    fn kind(&self) -> FormatKind {
        FormatKind::Fcoo
    }

    fn base(&self) -> &Fcoo {
        self
    }

    fn storage_bytes(&self) -> usize {
        self.storage().total_bytes()
    }

    fn build(tensor: &SparseTensorCoo, op: TensorOp, threadlen: usize) -> Self {
        Fcoo::from_coo(tensor, op, threadlen)
    }
}

impl SparseFormat for BfCoo {
    fn kind(&self) -> FormatKind {
        FormatKind::BfCoo
    }

    fn base(&self) -> &Fcoo {
        &self.base
    }

    fn storage_bytes(&self) -> usize {
        self.total_bytes()
    }

    fn build(tensor: &SparseTensorCoo, op: TensorOp, threadlen: usize) -> Self {
        BfCoo::from_coo(tensor, op, threadlen)
    }
}

/// A host-side format of either kind, cheaply clonable for the plan cache.
#[derive(Debug, Clone)]
pub enum AnyFormat {
    /// An F-COO instance.
    Fcoo(Arc<Fcoo>),
    /// A BF-COO instance.
    BfCoo(Arc<BfCoo>),
}

impl AnyFormat {
    /// Preprocesses `tensor` into the requested format.
    pub fn build(
        kind: FormatKind,
        tensor: &SparseTensorCoo,
        op: TensorOp,
        threadlen: usize,
    ) -> AnyFormat {
        match kind {
            FormatKind::Fcoo => AnyFormat::Fcoo(Arc::new(Fcoo::from_coo(tensor, op, threadlen))),
            FormatKind::BfCoo => AnyFormat::BfCoo(Arc::new(BfCoo::from_coo(tensor, op, threadlen))),
        }
    }

    /// Wraps a decoded F-COO payload as the requested format, deriving any
    /// schedule metadata (how persisted plans rehydrate: only the F-COO
    /// stream is stored).
    pub fn from_fcoo(kind: FormatKind, fcoo: Arc<Fcoo>) -> AnyFormat {
        match kind {
            FormatKind::Fcoo => AnyFormat::Fcoo(fcoo),
            FormatKind::BfCoo => AnyFormat::BfCoo(Arc::new(BfCoo::from_fcoo(
                Arc::try_unwrap(fcoo).unwrap_or_else(|arc| (*arc).clone()),
            ))),
        }
    }

    /// Which format this is.
    pub fn kind(&self) -> FormatKind {
        match self {
            AnyFormat::Fcoo(_) => FormatKind::Fcoo,
            AnyFormat::BfCoo(_) => FormatKind::BfCoo,
        }
    }

    /// The shared F-COO payload.
    pub fn base(&self) -> &Fcoo {
        match self {
            AnyFormat::Fcoo(f) => f,
            AnyFormat::BfCoo(b) => &b.base,
        }
    }

    /// Non-zeros per thread partition.
    pub fn threadlen(&self) -> usize {
        self.base().threadlen
    }

    /// Total bytes of the executable format including schedule metadata.
    pub fn storage_bytes(&self) -> usize {
        match self {
            AnyFormat::Fcoo(f) => f.storage_bytes(),
            AnyFormat::BfCoo(b) => b.storage_bytes(),
        }
    }

    /// Transfers the format to device memory.
    pub fn upload(&self, memory: &DeviceMemory) -> Result<AnyFormatDevice, OutOfMemory> {
        Ok(match self {
            AnyFormat::Fcoo(f) => AnyFormatDevice::Fcoo(FcooDevice::upload(memory, f)?),
            AnyFormat::BfCoo(b) => AnyFormatDevice::BfCoo(BfCooDevice::upload(memory, b)?),
        })
    }
}

/// A device-resident format of either kind: the unified kernel's launch
/// entry, running the format's operation on its gather schedule.
#[derive(Debug)]
pub enum AnyFormatDevice {
    /// Uploaded F-COO.
    Fcoo(FcooDevice),
    /// Uploaded BF-COO.
    BfCoo(BfCooDevice),
}

impl AnyFormatDevice {
    /// Which format this is.
    pub fn kind(&self) -> FormatKind {
        match self {
            AnyFormatDevice::Fcoo(_) => FormatKind::Fcoo,
            AnyFormatDevice::BfCoo(_) => FormatKind::BfCoo,
        }
    }

    /// The uploaded F-COO payload (header arithmetic and host-side
    /// segment coordinates).
    pub fn base(&self) -> &FcooDevice {
        match self {
            AnyFormatDevice::Fcoo(f) => f,
            AnyFormatDevice::BfCoo(b) => &b.base,
        }
    }

    /// Uploads an F-COO payload as a `kind` format, deriving the format's
    /// schedule metadata from the payload on the way: how an out-of-core
    /// chunk, a slice of the F-COO stream, runs in either format.
    pub fn upload_as(
        memory: &DeviceMemory,
        kind: FormatKind,
        fcoo: &Fcoo,
    ) -> Result<AnyFormatDevice, OutOfMemory> {
        Ok(match kind {
            FormatKind::Fcoo => AnyFormatDevice::Fcoo(FcooDevice::upload(memory, fcoo)?),
            FormatKind::BfCoo => AnyFormatDevice::BfCoo(BfCooDevice::upload_parts(
                memory,
                fcoo,
                &crate::bfcoo::bucket_counts(fcoo),
            )?),
        })
    }

    /// The uploaded F-COO payload and the gather schedule its format runs.
    fn schedule(&self) -> (&FcooDevice, GatherLayout<'_>) {
        match self {
            AnyFormatDevice::Fcoo(f) => (f, GatherLayout::Strided),
            AnyFormatDevice::BfCoo(b) => (
                &b.base,
                GatherLayout::Bucketed {
                    buckets: &b.buckets,
                },
            ),
        }
    }

    /// Runs the unified kernel for the format's operation, accumulating
    /// into `out` without clearing it: an all-zero buffer gives the
    /// operation's result, while a buffer whose first row carries a running
    /// partial sum extends that sum — the out-of-core path's chunk-boundary
    /// seeding (`crates/ooc`). Returns the kernel statistics.
    ///
    /// `factors` are listed as [`TensorOp::factor_modes`] says: `[U]` for
    /// SpTTM, one matrix per tensor mode for SpMTTKRP (the operating mode's
    /// entry is ignored), one per product mode (ascending) for SpTTMc. `out`
    /// is `segments × columns`, row-major, for every operation: one row per
    /// segment, in the order of the format's `segment_coords_host`; `R`
    /// columns, or `Π R_p` for SpTTMc.
    ///
    /// # Panics
    /// If the factors do not fit the format or `out` has the wrong size.
    pub fn launch_into(
        &self,
        device: &GpuDevice,
        factors: &[&DeviceMatrix],
        cfg: &LaunchConfig,
        out: &DeviceBuffer<f32>,
    ) -> KernelStats {
        let (fcoo, layout) = self.schedule();
        kernels::launch_into(device, fcoo, layout, factors, cfg, out)
    }

    /// [`AnyFormatDevice::launch_into`] a zero-allocated output, returned
    /// as a dense `segments × columns` block.
    pub fn launch(
        &self,
        device: &GpuDevice,
        factors: &[&DeviceMatrix],
        cfg: &LaunchConfig,
    ) -> Result<(DenseMatrix, KernelStats), OutOfMemory> {
        let (fcoo, layout) = self.schedule();
        kernels::launch(device, fcoo, layout, factors, cfg)
    }

    /// [`crate::spttm`] on this format's gather schedule.
    pub fn spttm(
        &self,
        device: &GpuDevice,
        u: &DeviceMatrix,
        cfg: &LaunchConfig,
    ) -> Result<(SemiSparseTensor, KernelStats), OutOfMemory> {
        let mode = kernels::expect_op(self.base(), |mode| TensorOp::SpTtm { mode });
        let (rows, stats) = self.launch(device, &[u], cfg)?;
        Ok((kernels::spttm_fibers(self.base(), mode, &rows), stats))
    }

    /// [`crate::spmttkrp`] on this format's gather schedule.
    pub fn spmttkrp(
        &self,
        device: &GpuDevice,
        factors: &[&DeviceMatrix],
        cfg: &LaunchConfig,
    ) -> Result<(DenseMatrix, KernelStats), OutOfMemory> {
        let mode = kernels::expect_op(self.base(), |mode| TensorOp::SpMttkrp { mode });
        let (rows, stats) = self.launch(device, factors, cfg)?;
        Ok((kernels::mode_rows(self.base(), mode, &rows), stats))
    }

    /// [`crate::spttmc_norder`] on this format's gather schedule.
    pub fn spttmc_norder(
        &self,
        device: &GpuDevice,
        product_factors: &[&DeviceMatrix],
        cfg: &LaunchConfig,
    ) -> Result<(DenseMatrix, KernelStats), OutOfMemory> {
        let mode = kernels::expect_op(self.base(), |mode| TensorOp::SpTtmc { mode });
        let (rows, stats) = self.launch(device, product_factors, cfg)?;
        Ok((kernels::mode_rows(self.base(), mode, &rows), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_core::datasets::{self, DatasetKind};

    #[test]
    fn tags_round_trip_and_unknown_tags_are_rejected() {
        for kind in FormatKind::ALL {
            assert_eq!(FormatKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(FormatKind::from_tag(2), None);
        assert_eq!(FormatKind::from_tag(0xff), None);
        assert_eq!(FormatKind::Fcoo.label(), "fcoo");
        assert_eq!(FormatKind::BfCoo.label(), "bfcoo");
    }

    #[test]
    fn storage_bytes_from_sizes_equal_the_built_format() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1000, 5);
        for op in [TensorOp::SpTtm { mode: 1 }, TensorOp::SpMttkrp { mode: 0 }] {
            for threadlen in [1, 3, 4, 8, 32, 33] {
                for kind in FormatKind::ALL {
                    let format = AnyFormat::build(kind, &tensor, op, threadlen);
                    let modes = format.base().product_indices.len();
                    assert_eq!(
                        kind.storage_bytes(tensor.nnz(), modes, threadlen),
                        format.storage_bytes(),
                        "{kind} {op:?} T{threadlen}"
                    );
                }
            }
        }
    }

    #[test]
    fn upload_holds_the_paper_model_plus_partition_pointers() {
        // No index-mode coordinate reaches the device: an upload allocates
        // the paper's Table II arrays, the partition pointers and, for
        // BF-COO, the buckets, and nothing else. nell1 is hypersparse, so
        // a stray coordinate column would nearly double SpTTM's bytes.
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 3000, 22);
        let device = GpuDevice::titan_x();
        for mode in 0..tensor.order() {
            for op in [
                TensorOp::SpTtm { mode },
                TensorOp::SpMttkrp { mode },
                TensorOp::SpTtmc { mode },
            ] {
                for kind in FormatKind::ALL {
                    let format = AnyFormat::build(kind, &tensor, op, 8);
                    let storage = format.base().storage();
                    let metadata = match &format {
                        AnyFormat::Fcoo(_) => 0,
                        AnyFormat::BfCoo(b) => b.bucket_bytes(),
                    };
                    let before = device.memory().live_bytes();
                    let uploaded = format.upload(device.memory()).unwrap();
                    let used = device.memory().live_bytes() - before;
                    assert_eq!(
                        used,
                        storage.paper_model_bytes() + storage.partition_ptr_bytes + metadata,
                        "{kind} {op:?}"
                    );
                    assert_eq!(used, format.storage_bytes(), "{kind} {op:?}");
                    drop(uploaded);
                }
            }
        }
    }

    #[test]
    fn metadata_bytes_agrees_with_built_bucket_metadata() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1777, 5);
        for op in [
            TensorOp::SpTtm { mode: 0 },
            TensorOp::SpMttkrp { mode: 1 },
            TensorOp::SpTtmc { mode: 2 },
        ] {
            let bf = BfCoo::from_coo(&tensor, op, 8);
            let modes = bf.base.product_indices.len();
            assert_eq!(
                FormatKind::BfCoo.metadata_bytes(bf.nnz(), modes),
                bf.bucket_bytes(),
                "{op:?}"
            );
            assert_eq!(FormatKind::Fcoo.metadata_bytes(bf.nnz(), modes), 0);
        }
    }

    #[test]
    fn from_fcoo_rederives_bucket_metadata() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 3);
        let op = TensorOp::SpMttkrp { mode: 0 };
        let fcoo = Arc::new(Fcoo::from_coo(&tensor, op, 8));
        let direct = BfCoo::from_coo(&tensor, op, 8);
        let rehydrated = AnyFormat::from_fcoo(FormatKind::BfCoo, Arc::clone(&fcoo));
        match &rehydrated {
            AnyFormat::BfCoo(b) => assert_eq!(b.buckets, direct.buckets),
            other => panic!("expected BF-COO, got {:?}", other.kind()),
        }
        assert_eq!(rehydrated.storage_bytes(), direct.total_bytes());
        let as_fcoo = AnyFormat::from_fcoo(FormatKind::Fcoo, fcoo);
        assert_eq!(as_fcoo.kind(), FormatKind::Fcoo);
    }

    #[test]
    fn dispatch_matches_direct_launches() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2500, 4);
        let device = GpuDevice::titan_x();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let cfg = LaunchConfig::default();
        let factors: Vec<DeviceMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &size)| {
                let host = DenseMatrix::random(size, 8, 90 + m as u64);
                DeviceMatrix::upload(device.memory(), &host).unwrap()
            })
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut results = Vec::new();
        for kind in FormatKind::ALL {
            let format = AnyFormat::build(kind, &tensor, op, 8);
            assert_eq!(format.kind(), kind);
            let dev = format.upload(device.memory()).unwrap();
            assert_eq!(dev.kind(), kind);
            assert_eq!(dev.base().nnz, format.base().nnz());
            let (result, _) = dev.spmttkrp(&device, &refs, &cfg).unwrap();
            // The same format uploaded from its bare F-COO payload, launched
            // into a caller's zeroed one-row-per-segment buffer, computes the
            // same bits once its rows are placed at their coordinates.
            let rehydrated =
                AnyFormatDevice::upload_as(device.memory(), kind, format.base()).unwrap();
            assert_eq!(rehydrated.kind(), kind);
            let segments = format.base().segments();
            let out = device.memory().alloc_zeroed::<f32>(segments * 8).unwrap();
            rehydrated.launch_into(&device, &refs, &cfg, &out);
            let placed = crate::scatter_rows(
                &DenseMatrix::from_vec(segments, 8, out.into_vec()),
                &format.base().segment_coords[0],
                tensor.shape()[0],
            );
            assert_eq!(bits(&placed), bits(&result), "{kind}");
            results.push(result);
        }
        assert_eq!(bits(&results[0]), bits(&results[1]));
    }
}
