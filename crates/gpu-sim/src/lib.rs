//! Functional + analytic simulator of a CUDA-like GPU.
//!
//! This crate is the hardware substitution of the reproduction (see
//! DESIGN.md): the paper evaluates on an NVIDIA Titan X, which is not
//! available here, and the phenomena the paper measures — coalescing,
//! read-only cache hit rates, atomic contention, warp divergence, occupancy,
//! memory footprints — are all *memory-system* behaviours that an analytic
//! model reproduces faithfully.
//!
//! Kernels execute **functionally** on the host (real results, validated
//! against sequential references) while narrating their memory behaviour to a
//! [`BlockCtx`], which accounts costs per warp and block. The timing model
//! (see [`stats`]) folds those counters into a simulated duration using the
//! device parameters in [`DeviceConfig`].
//!
//! ```
//! use gpu_sim::GpuDevice;
//!
//! let device = GpuDevice::titan_x();
//! let data = device.memory().alloc_from_slice(&[1.0f32; 1024]).unwrap();
//! let stats = device.launch((8, 1), 128, |ctx| {
//!     let base = ctx.block_x() * 128;
//!     for warp in 0..ctx.warps_per_block() {
//!         ctx.begin_warp();
//!         let addrs: Vec<u64> =
//!             (0..32).map(|lane| data.addr(base + warp * 32 + lane)).collect();
//!         ctx.read_global(&addrs);
//!         ctx.compute(1);
//!     }
//! });
//! assert_eq!(stats.blocks, 8);
//! assert!(stats.time_us > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod config;
pub mod exec;
pub mod faults;
mod instrument;
pub mod memory;
pub mod record;
pub mod scan;
pub mod stats;
pub mod streams;
pub mod trace;

pub use config::DeviceConfig;
pub use exec::{BlockCtx, GpuDevice};
pub use faults::{FaultConfig, FaultEvent};
pub use memory::{DeviceBuffer, DeviceMemory, OutOfMemory};
pub use record::{AccessKind, AccessLog, BlockRecord, Event, LaunchRecord};
pub use stats::{BlockStats, KernelStats};
pub use streams::Timeline;
pub use trace::{
    BlockTrace, ChromeEvent, ChromeTrace, KernelCounters, LaunchTrace, MemoryEvent,
    MemoryEventKind, Phase, TraceLog, WaveTrace,
};
