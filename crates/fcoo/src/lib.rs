//! F-COO: the unified sparse tensor format and GPU kernels of
//! *"A Unified Optimization Approach for Sparse Tensor Operations on GPUs"*
//! (Liu, Wen, Sarwate, Mehri Dehnavi — CLUSTER 2017).
//!
//! The crate implements the paper's four contributions:
//!
//! 1. **[`Fcoo`]** — the flagged-coordinate storage format: product-mode
//!    indices plus one-bit change flags for the index modes (§IV-B, Fig. 2,
//!    Table II);
//! 2. **unified kernels** — SpTTM, SpMTTKRP and SpTTMc are one one-shot
//!    kernel skeleton parameterized only by the Table I mode classification
//!    the format stores (§IV-C). [`AnyFormatDevice::launch_into`] is its
//!    one launch entry: the operation comes from the format, and the
//!    factors are listed as [`TensorOp::factor_modes`] says.
//!    [`AnyFormatDevice::launch`] allocates the output first, and the typed
//!    wrappers [`spttm`], [`spmttkrp`] and [`spttmc_norder`] (also methods
//!    of [`AnyFormatDevice`]) assemble each operation's result type;
//! 3. **GPU-specific optimizations** — segmented scan instead of atomics,
//!    read-only-cache factor reads, kernel fusion via adjacent
//!    synchronization, warp shuffle (§IV-D), all toggleable through
//!    [`LaunchConfig`] for ablation;
//! 4. **parameter tuning** — the `(BLOCK_SIZE, threadlen)` sweep of Fig. 5 /
//!    Table V in [`mod@tune`].
//!
//! Kernels run on the [`gpu_sim`] simulated device: results are real and
//! validated against `tensor_core::ops` references; times are produced by
//! the simulator's analytic model.
//!
//! ```
//! use fcoo::{Fcoo, FcooDevice, DeviceMatrix, LaunchConfig, TensorOp};
//! use gpu_sim::GpuDevice;
//! use tensor_core::{DenseMatrix, SparseTensorCoo};
//!
//! let tensor = SparseTensorCoo::from_entries(
//!     vec![4, 5, 6],
//!     &[(vec![0, 1, 2], 1.0), (vec![3, 4, 5], 2.0), (vec![0, 1, 3], 0.5)],
//! );
//! let device = GpuDevice::titan_x();
//! let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
//! let on_device = FcooDevice::upload(device.memory(), &fcoo).unwrap();
//! let u = DeviceMatrix::upload(device.memory(), &DenseMatrix::random(6, 16, 1)).unwrap();
//! let (result, stats) = fcoo::spttm(&device, &on_device, &u, &LaunchConfig::default()).unwrap();
//! assert_eq!(result.nfibs(), 2); // fibers (0,1) and (3,4)
//! assert!(stats.time_us > 0.0);
//! ```

#![warn(missing_docs)]

pub mod bfcoo;
pub mod chunk;
pub mod device;
pub mod format;
pub mod formats;
pub mod kernels;
pub mod modes;
pub mod pack;
pub mod serialize;
pub mod tune;
pub mod two_step;

pub use bfcoo::{bucket_counts, BfCoo, BfCooDevice, RUN as BUCKET_RUN};
pub use chunk::{extract, split, ChunkDescriptor, ChunkPlan};
pub use device::{DeviceMatrix, FcooDevice};
pub use format::{table2_coo_bytes, table2_fcoo_bytes, BitFlags, Fcoo, StorageBreakdown};
pub use formats::{AnyFormat, AnyFormatDevice, FormatKind, SparseFormat};
pub use kernels::{spmttkrp, spttm, spttmc_norder, ColumnTiling, LaunchConfig, BUCKET_SHUFFLE_OPS};
pub use modes::{ModeClassification, TensorOp};
pub use pack::{compact_tensor, gather_rows, mttkrp_refs, touched_rows};
pub use serialize::{read_fcoo, write_fcoo, DecodeError};
pub use tune::{tune, tune_with_filter, TunePoint, TuneResult, BLOCK_SIZES, THREADLENS};
pub use two_step::{spmttkrp_two_step_device, spmttkrp_two_step_unified, TwoStepOutcome};
