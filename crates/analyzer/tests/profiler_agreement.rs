//! Golden agreement between the certified envelopes and the dynamic
//! profiler: at every launchable point of the paper grid, the traced
//! counters of all four kernels (the two-step baseline included) lie inside
//! the envelope the analyzer derives from headers alone — launches, blocks,
//! waves, launched and active warps and atomics exactly, the gather traffic
//! and the time within their intervals. The traced grid is the certified
//! one, SpTTMc's column tiles included.

use analyzer::cost::{self, CounterEnvelope};
use analyzer::model::{launch_shape_violation, LaunchGeometry};
use fcoo::{
    spmttkrp, spmttkrp_two_step_unified, spttm, spttmc_norder, ColumnTiling, DeviceMatrix, Fcoo,
    FcooDevice, LaunchConfig, TensorOp,
};
use gpu_sim::{GpuDevice, KernelCounters, LaunchTrace};
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SparseTensorCoo};

const RANK: usize = 8;
const MODE: usize = 0;

/// The kernels swept: the three unified operations and the two-step
/// SpMTTKRP baseline (`None`).
const KERNELS: [Option<TensorOp>; 4] = [
    Some(TensorOp::SpTtm { mode: MODE }),
    Some(TensorOp::SpMttkrp { mode: MODE }),
    Some(TensorOp::SpTtmc { mode: MODE }),
    None,
];

fn factors(tensor: &SparseTensorCoo) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
        .collect()
}

/// Runs one kernel traced at one configuration on a fresh device and
/// returns the captured launches with the envelope certified for them.
fn run_traced(
    tensor: &SparseTensorCoo,
    kernel: Option<TensorOp>,
    cfg: &LaunchConfig,
    threadlen: usize,
) -> (Vec<LaunchTrace>, CounterEnvelope) {
    let device = GpuDevice::titan_x();
    let hosts = factors(tensor);
    let Some(op) = kernel else {
        let envelope = cost::certify_two_step(device.config(), tensor, MODE, RANK, threadlen, cfg)
            .expect("3-order tensor")
            .total;
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        device.start_tracing();
        spmttkrp_two_step_unified(&device, tensor, MODE, &refs, threadlen, cfg)
            .expect("two-step run");
        return (device.stop_tracing().launches, envelope);
    };
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let envelope = cost::certify(device.config(), &fcoo, RANK, cfg);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("factor upload"))
        .collect();
    device.start_tracing();
    match op {
        TensorOp::SpTtm { mode } => {
            spttm(&device, &on_device, &uploaded[mode], cfg).expect("spttm");
        }
        TensorOp::SpMttkrp { .. } => {
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            spmttkrp(&device, &on_device, &refs, cfg).expect("spmttkrp");
        }
        TensorOp::SpTtmc { .. } => {
            let product: Vec<&DeviceMatrix> = on_device
                .classification
                .product_modes
                .iter()
                .map(|&m| &uploaded[m])
                .collect();
            spttmc_norder(&device, &on_device, &product, cfg).expect("spttmc");
        }
    }
    (device.stop_tracing().launches, envelope)
}

#[test]
fn envelopes_agree_with_traced_counters() {
    let config = GpuDevice::titan_x().config().clone();
    let mut points = 0;
    let mut dead_warp_points = 0;
    let mut tiled_shapes_checked = 0;
    for dataset in [DatasetKind::Brainq, DatasetKind::Delicious] {
        let (tensor, _) = datasets::generate(dataset, 1_200, 7);
        for kernel in KERNELS {
            if kernel.is_none() && tensor.order() != 3 {
                continue;
            }
            for threadlen in fcoo::THREADLENS {
                for block_size in fcoo::BLOCK_SIZES {
                    let geometry = LaunchGeometry::new(block_size, threadlen, tensor.nnz());
                    if launch_shape_violation(&geometry, &config).is_some() {
                        continue;
                    }
                    let cfg = LaunchConfig::with_block_size(block_size);
                    let (launches, envelope) = run_traced(&tensor, kernel, &cfg, threadlen);
                    let label = format!("{kernel:?} B{block_size} T{threadlen} on {dataset:?}");
                    let mut measured = KernelCounters::default();
                    for launch in &launches {
                        measured.merge(&launch.counters());
                    }
                    assert_eq!(
                        envelope.violations(&measured),
                        Vec::<String>::new(),
                        "{label}"
                    );
                    points += 1;
                    if measured.launched_warps > measured.active_warps {
                        dead_warp_points += 1;
                    }
                    // SpTTMc's rank-8 Kronecker columns run in tiles of 8:
                    // the traced grid is the tiled one the envelope counts.
                    if let Some(op @ TensorOp::SpTtmc { .. }) = kernel {
                        let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
                        let tiling = ColumnTiling::at_rank(&fcoo, RANK);
                        assert_eq!(tiling.tile, 8, "{label}: rank-8 SpTTMc tile");
                        assert_eq!(
                            launches[0].grid,
                            (fcoo.partitions().div_ceil(block_size), tiling.grid_y()),
                            "{label}: traced grid"
                        );
                        tiled_shapes_checked += 1;
                    }
                }
            }
        }
    }
    // Every launchable point of the grid was traced, and the sweep
    // exercises the dead-warp slots and the tiled SpTTMc shape.
    let grid = fcoo::BLOCK_SIZES.len() * fcoo::THREADLENS.len();
    assert_eq!(points, 2 * 4 * grid, "every paper-grid point is launchable");
    assert!(dead_warp_points >= 1, "no point launched a dead warp slot");
    assert!(
        tiled_shapes_checked >= 1,
        "no tiled SpTTMc shape was checked"
    );
}
