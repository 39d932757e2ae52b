//! Compact plans through the serving engine: every plan's format is built
//! over compact product-mode coordinates, so a request moves exactly its
//! factors' touched rows, issues no launch besides its kernel, and runs
//! inside the envelope of the selection made on the registered tensor,
//! with results bit-exact against the uncompacted one-shot reference.

use analyzer::FormatChoice;
use fcoo::{AnyFormat, AnyFormatDevice, DeviceMatrix, LaunchConfig, TensorOp};
use gpu_sim::{DeviceConfig, GpuDevice, KernelStats};
use proptest::prelude::*;
use serve::engine::factor_seed_for_mode;
use serve::plan::{PlanCache, PlanKey, SERVE_BLOCK_SIZES, SERVE_THREADLENS};
use serve::upload::FactorPlan;
use serve::{ServeConfig, ServeEngine, ServeOp, Workload};
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SemiSparseTensor, SparseTensorCoo};

fn touched(tensor: &SparseTensorCoo) -> Vec<Vec<u32>> {
    (0..tensor.order())
        .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
        .collect()
}

/// The planner's selection on the registered, uncompacted tensor.
fn select(tensor: &SparseTensorCoo, op: TensorOp, rank: usize) -> FormatChoice {
    analyzer::tune_select(
        &DeviceConfig::titan_x(),
        tensor,
        op,
        rank,
        Some(&SERVE_BLOCK_SIZES),
        Some(&SERVE_THREADLENS),
    )
}

fn product_modes(op: TensorOp, order: usize) -> Vec<usize> {
    match op {
        TensorOp::SpTtm { mode } => vec![mode],
        TensorOp::SpMttkrp { mode } | TensorOp::SpTtmc { mode } => {
            (0..order).filter(|&m| m != mode).collect()
        }
    }
}

#[test]
fn nell1_spttm_moves_touched_rows_and_launches_only_its_kernel() {
    let text = "tensor t nell1 1500 3\n\
                request t spttm 0 16 0.0 1\n\
                request t spttm 0 16 5000.0 2\n";
    let workload = Workload::parse(text).expect("valid workload");
    let mut engine = ServeEngine::new(ServeConfig {
        profile: true,
        verify: true,
        ..ServeConfig::default()
    });
    let mut report = engine.run(&workload);
    assert_eq!(report.requests.len(), 2, "{:?}", report.rejections);
    assert_eq!(report.verify_failures, 0);
    let profile = report.profile.take().expect("profiling enabled");

    let (tensor, _) = datasets::generate(DatasetKind::Nell1, 1500, 3);
    let rows = fcoo::touched_rows(tensor.mode_indices(0));
    assert!(rows.len() * 10 < tensor.shape()[0], "nell1 is hypersparse");
    let full_bytes = tensor.shape()[0] * 16 * 4;
    // The second request finds its format resident, so its upload is the
    // compact factor alone.
    let p = &profile.requests[1];
    assert!(!p.batched);
    assert_eq!(p.h2d_bytes, rows.len() * 16 * 4, "touched × R × 4");
    assert_eq!(p.launches.len(), 1, "no launch besides the kernel");
    assert_eq!(p.kernel_us.to_bits(), p.launches[0].time_us.to_bits());
    assert!(
        report.peak_bytes[0] < full_bytes,
        "device peak {} B reaches the full factor's {full_bytes} B",
        report.peak_bytes[0]
    );

    let ServeOp::Tensor(op) = p.op else {
        panic!("tensor op expected")
    };
    let chosen = select(&tensor, op, 16).chosen;
    assert_eq!(
        (chosen.kind, chosen.block_size, chosen.threadlen),
        (p.format, p.block_size, p.threadlen)
    );
    assert!(
        chosen.time_us.contains(p.kernel_us),
        "{} us escapes [{}, {}]",
        p.kernel_us,
        chosen.time_us.lo,
        chosen.time_us.hi
    );
}

#[test]
fn brainq_plans_are_byte_identical_to_uncompacted_builds() {
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 3000, 5);
    let touched = touched(&tensor);
    for (rows, &size) in touched.iter().zip(tensor.shape()) {
        assert_eq!(rows.len(), size, "brainq has no empty slices");
    }
    let mut cache = PlanCache::new(None);
    for mode in 0..tensor.order() {
        for op in [
            TensorOp::SpTtm { mode },
            TensorOp::SpMttkrp { mode },
            TensorOp::SpTtmc { mode },
        ] {
            let rank = if matches!(op, TensorOp::SpTtmc { .. }) {
                4
            } else {
                16
            };
            let key = PlanKey::new(0, op, rank);
            let (plan, _) = cache.get_or_build(key, &tensor, &touched, &device);
            let full = AnyFormat::build(plan.kind(), &tensor, op, plan.threadlen());
            let (mut compact_bytes, mut full_bytes) = (Vec::new(), Vec::new());
            fcoo::write_fcoo(plan.fcoo(), &mut compact_bytes).expect("in-memory write");
            fcoo::write_fcoo(full.base(), &mut full_bytes).expect("in-memory write");
            assert_eq!(compact_bytes, full_bytes, "{op:?}");
            let certificate =
                serve::plan::PlanCertificate::derive(device.config(), &full, rank, plan.block_size);
            assert!(plan.certificate.matches(&certificate), "{op:?}");
        }
    }
}

#[test]
fn spmttkrp_never_uploads_the_mode_n_factor() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 7);
    let touched = touched(&tensor);
    for mode in 0..3 {
        let plan = FactorPlan::new(TensorOp::SpMttkrp { mode }, tensor.shape(), &touched, 8);
        let modes: Vec<usize> = plan.moves.iter().map(|m| m.mode).collect();
        let want: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        assert_eq!(modes, want);
        let compact: usize = want.iter().map(|&m| touched[m].len() * 8 * 4).sum();
        assert_eq!(plan.device_bytes(), compact);
        assert_eq!(plan.h2d_bytes(), compact);
    }
}

#[test]
fn hypersparse_requests_move_less_than_full_factors_and_verify() {
    // Every op over hypersparse tensors: each request (the first of its
    // plan) moves its format plus its factor plan's compact bytes, and its
    // result is bit-exact with the uncompacted one-shot API.
    let text = "tensor n nell1 1500 9\n\
                tensor d delicious 1500 9\n\
                request n spttm 1 16 0.0 1\n\
                request d spttm 0 16 100.0 2\n\
                request d spttm 2 16 200.0 3\n\
                request n mttkrp 0 16 300.0 4\n\
                request d ttmc 1 4 400.0 5\n";
    let workload = Workload::parse(text).expect("valid workload");
    let mut engine = ServeEngine::new(ServeConfig {
        profile: true,
        verify: true,
        ..ServeConfig::default()
    });
    let report = engine.run(&workload);
    assert_eq!(report.verify_failures, 0);
    assert_eq!(report.verified, 5);
    let tensors: Vec<_> = workload
        .tensors
        .iter()
        .map(|t| (t.id.clone(), datasets::generate(t.kind, t.nnz, t.seed).0))
        .collect();
    let profile = report.profile.expect("profiling enabled");
    let mut smaller = 0;
    for p in &profile.requests {
        let ServeOp::Tensor(op) = p.op else {
            panic!("tensor op expected")
        };
        let tensor = &tensors
            .iter()
            .find(|(id, _)| *id == p.tensor_id)
            .expect("registered")
            .1;
        let plan = FactorPlan::new(op, tensor.shape(), &touched(tensor), p.rank);
        let full: usize = plan.moves.iter().map(|m| m.rows * p.rank * 4).sum();
        let format = AnyFormat::build(p.format, tensor, op, p.threadlen);
        assert_eq!(
            p.h2d_bytes,
            format.storage_bytes() + 64 + plan.h2d_bytes(),
            "request {}",
            p.index
        );
        assert!(plan.h2d_bytes() <= full, "request {}", p.index);
        smaller += usize::from(plan.h2d_bytes() < full);
    }
    assert!(smaller >= 3, "hypersparse factors shrink");
}

/// One launch of `format` for `op` over `factors` (one per product mode,
/// ascending), with its output in a comparable shape.
fn launch(
    device: &GpuDevice,
    format: &AnyFormatDevice,
    op: TensorOp,
    factors: &[DeviceMatrix],
    extent: usize,
    block_size: usize,
) -> (Result<DenseMatrix, SemiSparseTensor>, KernelStats) {
    let cfg = LaunchConfig::with_block_size(block_size);
    match op {
        TensorOp::SpTtm { .. } => {
            let (out, stats) = format.spttm(device, &factors[0], &cfg).expect("fits");
            (Err(out.with_dense_extent(extent)), stats)
        }
        TensorOp::SpMttkrp { mode } => {
            // The ignored mode-`mode` slot aliases the first product factor.
            let refs: Vec<&DeviceMatrix> = (0..=factors.len())
                .map(|m| match m.cmp(&mode) {
                    std::cmp::Ordering::Less => &factors[m],
                    std::cmp::Ordering::Equal => &factors[0],
                    std::cmp::Ordering::Greater => &factors[m - 1],
                })
                .collect();
            let (out, stats) = format.spmttkrp(device, &refs, &cfg).expect("fits");
            (Ok(out), stats)
        }
        TensorOp::SpTtmc { .. } => {
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            let (out, stats) = format.spttmc_norder(device, &refs, &cfg).expect("fits");
            (Ok(out), stats)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over power-law tensors, every op, mode and rank: the compact launch
    /// computes the uncompacted launch's output — bit for bit with one
    /// `cpu-par` worker, within the integration tolerance otherwise (float
    /// atomics sum in host-thread order) — and its simulated time lies
    /// inside the envelope of the selection on the uncompacted tensor.
    #[test]
    fn compact_launches_match_uncompacted_ones(
        dims in (2usize..400, 2usize..4_000, 2usize..40_000),
        nnz in 50usize..3_000,
        skew in 0.0f64..1.6,
        seed in 0u64..10_000,
        op_code in 0usize..3,
        mode in 0usize..3,
        rank in 1usize..20,
    ) {
        let shape = [dims.0, dims.1, dims.2];
        let tensor = datasets::generate_norder(&shape, nnz, skew, seed);
        prop_assume!(tensor.nnz() > 0);
        let (op, rank) = match op_code {
            0 => (TensorOp::SpTtm { mode }, rank),
            1 => (TensorOp::SpMttkrp { mode }, rank),
            _ => (TensorOp::SpTtmc { mode }, rank.min(6)),
        };
        let chosen = select(&tensor, op, rank).chosen;
        let touched = touched(&tensor);
        let device = GpuDevice::titan_x();
        let products = product_modes(op, 3);
        let hosts: Vec<DenseMatrix> = products
            .iter()
            .map(|&m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(seed, m)))
            .collect();

        let full = AnyFormat::build(chosen.kind, &tensor, op, chosen.threadlen)
            .upload(device.memory())
            .expect("fits");
        let full_factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|h| DeviceMatrix::upload(device.memory(), h).expect("fits"))
            .collect();
        let extent = shape[op.mode()];
        let (want, _) = launch(&device, &full, op, &full_factors, extent, chosen.block_size);
        drop((full, full_factors));

        let compact = fcoo::compact_tensor(&tensor, op, &touched);
        let format = AnyFormat::build(chosen.kind, &compact, op, chosen.threadlen)
            .upload(device.memory())
            .expect("fits");
        let compact_factors: Vec<DeviceMatrix> = products
            .iter()
            .zip(&hosts)
            .map(|(&m, host)| {
                let rows = &touched[m];
                let gathered = DenseMatrix::from_fn(rows.len(), rank, |r, c| {
                    host.get(rows[r] as usize, c)
                });
                DeviceMatrix::upload(device.memory(), &gathered).expect("fits")
            })
            .collect();
        let (got, stats) =
            launch(&device, &format, op, &compact_factors, extent, chosen.block_size);

        if cpu_par::global_pool().num_threads() == 1 {
            prop_assert!(got == want, "{op:?} rank {rank}: outputs differ");
        } else {
            let diff = match (&got, &want) {
                (Ok(g), Ok(w)) => Some(g.max_abs_diff(w)),
                (Err(g), Err(w)) => g.max_abs_diff(w),
                _ => None,
            };
            prop_assert!(
                diff.is_some_and(|d| d < 1e-3),
                "{op:?} rank {rank}: outputs differ by {diff:?}"
            );
        }
        prop_assert!(
            chosen.time_us.contains(stats.time_us),
            "{op:?} rank {rank}: {} us escapes [{}, {}]",
            stats.time_us,
            chosen.time_us.lo,
            chosen.time_us.hi
        );
    }
}
