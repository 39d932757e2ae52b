//! # unified-tensors
//!
//! A Rust reproduction of *"A Unified Optimization Approach for Sparse
//! Tensor Operations on GPUs"* (Liu, Wen, Sarwate, Mehri Dehnavi — IEEE
//! CLUSTER 2017, arXiv:1705.09905).
//!
//! This facade crate re-exports the whole system:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | contribution | [`fcoo`] | F-COO format, unified SpTTM/SpMTTKRP/SpTTMc kernels, tuner |
//! | algorithms | [`decomp`] | CP-ALS (unified GPU / SPLATT / reference engines), Tucker-HOOI |
//! | baselines | [`baselines`] | ParTI-GPU, ParTI-OMP, SPLATT-CSF |
//! | serving | [`serve`] | multi-tenant request engine: plan cache, memory pool, multi-stream scheduler |
//! | static analysis | [`analyzer`] | symbolic per-warp analyzer: proves/refutes launch properties across the tuning grid without running a launch |
//! | substrates | [`tensor_core`], [`gpu_sim`], [`cpu_par`] | tensors & dense LA, simulated GPU, CPU pool |
//!
//! ## Quickstart
//!
//! ```
//! use unified_tensors::prelude::*;
//!
//! // A sparse 3-way tensor (user × item × tag, say).
//! let tensor = SparseTensorCoo::from_entries(
//!     vec![100, 80, 60],
//!     &[
//!         (vec![0, 1, 2], 1.0),
//!         (vec![0, 5, 2], 2.0),
//!         (vec![42, 7, 50], 0.5),
//!         (vec![99, 79, 59], 1.5),
//!     ],
//! );
//!
//! // Preprocess into F-COO for MTTKRP on mode 1 and ship to the simulated GPU.
//! let device = GpuDevice::titan_x();
//! let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
//! let on_device = FcooDevice::upload(device.memory(), &fcoo).unwrap();
//!
//! // Dense factors, one per mode.
//! let factors: Vec<DeviceMatrix> = tensor
//!     .shape()
//!     .iter()
//!     .map(|&n| DeviceMatrix::upload(device.memory(), &DenseMatrix::random(n, 16, 7)).unwrap())
//!     .collect();
//! let refs: Vec<&DeviceMatrix> = factors.iter().collect();
//!
//! let (m, stats) = unified_tensors::fcoo::spmttkrp(
//!     &device, &on_device, &refs, &LaunchConfig::default(),
//! ).unwrap();
//! assert_eq!((m.rows(), m.cols()), (100, 16));
//! assert!(stats.time_us > 0.0);
//! ```

pub mod cli;
pub mod golden;

pub use analyzer;
pub use baselines;
pub use cpu_par;
pub use decomp;
pub use fcoo;
pub use gpu_sim;
pub use modelcheck;
pub use ooc;
pub use serve;
pub use tensor_core;

/// The commonly used types and functions in one import.
pub mod prelude {
    pub use baselines::{
        mttkrp_csf, spmttkrp_omp, spmttkrp_two_step_gpu, spttm_fiber_gpu, spttm_omp, Csf, SortedCoo,
    };
    pub use decomp::{
        cp_als, tucker_hooi, CpOptions, CpRun, ReferenceEngine, SplattEngine, TuckerOptions,
        UnifiedGpuEngine,
    };
    pub use fcoo::{
        spmttkrp, spttm, spttmc_norder, AnyFormat, AnyFormatDevice, BfCoo, DeviceMatrix, Fcoo,
        FcooDevice, FormatKind, LaunchConfig, TensorOp,
    };
    pub use gpu_sim::{DeviceConfig, GpuDevice, KernelStats};
    pub use serve::{ServeConfig, ServeEngine, ServeReport, Workload};
    pub use tensor_core::datasets::{self, DatasetInfo, DatasetKind};
    pub use tensor_core::{DenseMatrix, SemiSparseTensor, SparseTensorCoo};
}
