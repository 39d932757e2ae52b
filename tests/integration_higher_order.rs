//! Higher-order (4- and 5-way) tensor integration: the paper states F-COO
//! and the unified algorithms "can be extended to support other tensor
//! operations and higher-order tensors" — the implementation here is
//! order-generic, and these tests exercise that end to end.

use unified_tensors::prelude::*;
use unified_tensors::tensor_core::datasets::generate_norder;
use unified_tensors::tensor_core::ops;

fn factor_hosts(tensor: &SparseTensorCoo, r: usize, seed: u64) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, r, seed + m as u64))
        .collect()
}

#[test]
fn unified_spttm_matches_reference_on_4_order() {
    let tensor = generate_norder(&[25, 18, 30, 12], 4_000, 1.0, 500);
    let device = GpuDevice::titan_x();
    for mode in 0..4 {
        let u_host = DenseMatrix::random(tensor.shape()[mode], 8, mode as u64);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode }, 8);
        // Index modes are all but the product mode.
        assert_eq!(fcoo.classification.index_modes.len(), 3);
        let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
        let u = DeviceMatrix::upload(device.memory(), &u_host).expect("upload");
        let (result, _) =
            unified_tensors::fcoo::spttm(&device, &on_device, &u, &LaunchConfig::default())
                .expect("kernel");
        let reference = ops::spttm(&tensor, mode, &u_host);
        let diff = result.max_abs_diff(&reference).expect("fiber sets");
        assert!(diff < 1e-3, "mode {mode} diff {diff}");
    }
}

#[test]
fn unified_spmttkrp_matches_reference_on_4_order() {
    let tensor = generate_norder(&[20, 25, 15, 18], 4_000, 0.8, 501);
    let device = GpuDevice::titan_x();
    let hosts = factor_hosts(&tensor, 6, 42);
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    for mode in 0..4 {
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode }, 8);
        // Three product modes → the per-non-zero product is a triple
        // Hadamard.
        assert_eq!(fcoo.classification.product_modes.len(), 3);
        let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).expect("upload"))
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (result, stats) =
            unified_tensors::fcoo::spmttkrp(&device, &on_device, &refs, &LaunchConfig::default())
                .expect("kernel");
        let reference = ops::spmttkrp(&tensor, mode, &host_refs);
        assert!(
            result.max_abs_diff(&reference) < 1e-3,
            "mode {mode} diff {}",
            result.max_abs_diff(&reference)
        );
        assert!(stats.time_us > 0.0);
    }
}

#[test]
fn unified_spmttkrp_on_5_order() {
    let tensor = generate_norder(&[12, 10, 14, 9, 11], 3_000, 0.5, 502);
    let device = GpuDevice::titan_x();
    let hosts = factor_hosts(&tensor, 4, 7);
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 2 }, 16);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let (result, _) =
        unified_tensors::fcoo::spmttkrp(&device, &on_device, &refs, &LaunchConfig::default())
            .expect("kernel");
    let reference = ops::spmttkrp(&tensor, 2, &host_refs);
    assert!(result.max_abs_diff(&reference) < 1e-3);
}

#[test]
fn cp_als_runs_on_4_order_tensors() {
    let tensor = generate_norder(&[15, 12, 10, 8], 3_000, 0.6, 503);
    let opts = CpOptions {
        rank: 3,
        max_iters: 4,
        tol: 1e-7,
        seed: 5,
    };
    let mut reference = ReferenceEngine::new(&tensor);
    let ref_run = cp_als(&tensor, &mut reference, &opts).expect("engine computes every MTTKRP");
    let device = GpuDevice::titan_x();
    let mut unified =
        UnifiedGpuEngine::new(&device, &tensor, 8, LaunchConfig::default().block_size)
            .expect("fits");
    let unified_run = cp_als(&tensor, &mut unified, &opts).expect("engine computes every MTTKRP");
    assert_eq!(ref_run.model.factors.len(), 4);
    assert_eq!(unified_run.mode_us.len(), 4);
    assert!(
        (ref_run.fit - unified_run.fit).abs() < 1e-3,
        "4-order CP fits diverged: {} vs {}",
        ref_run.fit,
        unified_run.fit
    );
}

#[test]
fn storage_model_extends_to_4_order() {
    // Table II logic at order 4: SpTTM keeps 1 product index (8 B/nnz core),
    // SpMTTKRP keeps 3 (16 B/nnz core); COO costs 20 B/nnz.
    let tensor = generate_norder(&[30, 30, 30, 30], 6_000, 0.8, 504);
    let n = tensor.nnz();
    assert_eq!(unified_tensors::fcoo::table2_coo_bytes(4, n), 20 * n);
    let spttm = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 3 }, 8);
    let mttkrp = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
    let spttm_model = spttm.storage().paper_model_bytes() as f64;
    let mttkrp_model = mttkrp.storage().paper_model_bytes() as f64;
    assert!((spttm_model - unified_tensors::fcoo::table2_fcoo_bytes(1, n, 8)).abs() < 16.0);
    assert!((mttkrp_model - unified_tensors::fcoo::table2_fcoo_bytes(3, n, 8)).abs() < 16.0);
    assert!(spttm.storage().total_bytes() < 20 * n);
}
