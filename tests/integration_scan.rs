//! Cross-validation of the unified kernels against their algorithmic
//! decomposition: computing the per-non-zero products on the host, scanning
//! them with the host reference `gpu_sim::scan::segmented_scan_inclusive`
//! over the format's bit-flag heads, and gathering each segment's total
//! must reproduce the unified kernel's output (same decomposition,
//! independent implementations).

use unified_tensors::gpu_sim::scan::segmented_scan_inclusive;
use unified_tensors::prelude::*;

/// The format's segment heads, one flag per non-zero.
fn heads(fcoo: &Fcoo) -> Vec<bool> {
    (0..fcoo.nnz()).map(|nz| fcoo.bf.get(nz)).collect()
}

#[test]
fn unified_spttm_equals_product_then_segmented_scan() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 4_000, 600);
    let device = GpuDevice::titan_x();
    let rank = 6;
    let u_host = DenseMatrix::random(tensor.shape()[2], rank, 8);

    // Path A: the unified kernel.
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
    let u = DeviceMatrix::upload(device.memory(), &u_host).expect("upload");
    let (kernel_result, _) =
        unified_tensors::fcoo::spttm(&device, &on_device, &u, &LaunchConfig::default())
            .expect("kernel");

    // Path B: per-non-zero products → segmented scan → segment totals at
    // the scan's segment-final positions.
    let nnz = fcoo.nnz();
    let segments = fcoo.segments();
    let heads = heads(&fcoo);
    for col in 0..rank {
        let products: Vec<f32> = (0..nnz)
            .map(|nz| fcoo.values[nz] * u_host.get(fcoo.product_indices[0][nz] as usize, col))
            .collect();
        let out = segmented_scan_inclusive(&products, &heads);
        // Segment totals: the scanned value just before each next head.
        let mut seg_totals = Vec::with_capacity(segments);
        for (nz, &total) in out.iter().enumerate() {
            if heads.get(nz + 1).copied().unwrap_or(true) {
                seg_totals.push(total);
            }
        }
        assert_eq!(seg_totals.len(), segments);
        for (seg, &total) in seg_totals.iter().enumerate() {
            let kernel_value = kernel_result.fiber(seg)[col];
            assert!(
                (kernel_value - total).abs() <= 1e-3 * (1.0 + total.abs()),
                "column {col} segment {seg}: kernel {kernel_value} vs scan {total}"
            );
        }
    }
}

#[test]
fn unified_mttkrp_equals_product_then_segmented_scan() {
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 6_000, 601);
    let device = GpuDevice::titan_x();
    let rank = 4;
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 70 + m as u64))
        .collect();

    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let (kernel_result, _) =
        unified_tensors::fcoo::spmttkrp(&device, &on_device, &refs, &LaunchConfig::default())
            .expect("kernel");

    let nnz = fcoo.nnz();
    let product_modes = &fcoo.classification.product_modes;
    let heads = heads(&fcoo);
    for col in 0..rank {
        let products: Vec<f32> = (0..nnz)
            .map(|nz| {
                let mut product = fcoo.values[nz];
                for (slot, &m) in product_modes.iter().enumerate() {
                    product *= hosts[m].get(fcoo.product_indices[slot][nz] as usize, col);
                }
                product
            })
            .collect();
        let out = segmented_scan_inclusive(&products, &heads);
        let mut seg = 0usize;
        for (nz, &total) in out.iter().enumerate() {
            if heads.get(nz + 1).copied().unwrap_or(true) {
                let row = fcoo.segment_coords[0][seg] as usize;
                let kernel_value = kernel_result.get(row, col);
                assert!(
                    (kernel_value - total).abs() <= 2e-3 * (1.0 + total.abs()),
                    "column {col} segment {seg} (row {row}): {kernel_value} vs {total}"
                );
                seg += 1;
            }
        }
        assert_eq!(seg, fcoo.segments());
    }
}
