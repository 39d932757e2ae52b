//! End-to-end sanitizer runs against real kernels: the unified F-COO
//! kernels must come out clean in recording mode, and a deliberately racy
//! SpMTTKRP-style accumulation must be flagged (while its atomic twin is
//! not).

use fcoo::{DeviceMatrix, Fcoo, FcooDevice, LaunchConfig, TensorOp};
use gpu_sim::{FaultConfig, FaultEvent, GpuDevice};
use sanitizer::{Pass, Severity};
use tensor_core::{DenseMatrix, SparseTensorCoo};

fn sample_tensor() -> SparseTensorCoo {
    let mut tensor = SparseTensorCoo::new(vec![9, 7, 5]);
    // Deterministic pseudo-random fill with duplicate-free coordinates and
    // several non-zeros per output slice, so segments span partitions.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut seen = std::collections::HashSet::new();
    while tensor.nnz() < 120 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = ((state >> 33) % 9) as u32;
        let j = ((state >> 17) % 7) as u32;
        let k = ((state >> 5) % 5) as u32;
        if seen.insert((i, j, k)) {
            tensor.push(&[i, j, k], (tensor.nnz() as f32).mul_add(0.25, 1.0));
        }
    }
    tensor
}

fn factors(device: &GpuDevice, tensor: &SparseTensorCoo, r: usize) -> Vec<DeviceMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &size)| {
            let host = DenseMatrix::random(size, r, 42 + m as u64);
            DeviceMatrix::upload(device.memory(), &host).expect("factor upload")
        })
        .collect()
}

/// A miniature SpMTTKRP accumulation: every block folds its slice of
/// non-zero products into shared output rows. With plain read-modify-write
/// this races across blocks; with `atomicAdd` it is correct.
fn accumulation_kernel(atomic: bool) -> sanitizer::Report {
    let device = GpuDevice::titan_x();
    let rows: Vec<u32> = (0..256u32).map(|nz| nz % 4).collect();
    let values: Vec<f32> = (0..256).map(|nz| nz as f32 * 0.5).collect();
    let rows_dev = device.memory().alloc_from_slice(&rows).expect("rows");
    let values_dev = device.memory().alloc_from_slice(&values).expect("values");
    let out = device.memory().alloc_zeroed::<f32>(4).expect("out");
    device.start_recording();
    device.launch((8, 1), 32, |ctx| {
        ctx.begin_warp();
        let chunk = ctx.block_x() * 32;
        ctx.read_global_range(values_dev.addr(chunk), 32 * 4);
        ctx.read_global_range(rows_dev.addr(chunk), 32 * 4);
        let mut lanes: Vec<(usize, f32)> = Vec::with_capacity(32);
        for lane in 0..32 {
            let nz = chunk + lane;
            let row = rows_dev.get(nz) as usize;
            let contribution = values_dev.get(nz);
            if atomic {
                lanes.push((row, contribution));
            } else {
                // Injected bug: non-atomic accumulation into rows that
                // every block touches.
                let current = out.get(row);
                ctx.read_global(&[out.addr(row)]);
                // SAFETY: not actually safe — this is the injected race the
                // sanitizer must catch.
                unsafe { out.write(row, current + contribution) };
                ctx.write_global(&[out.addr(row)]);
            }
        }
        ctx.atomic_add_f32(&out, &lanes);
    });
    sanitizer::analyze(&device.stop_recording())
}

#[test]
fn injected_nonatomic_accumulation_races() {
    let report = accumulation_kernel(false);
    assert!(report.error_count() > 0, "race not flagged:\n{report}");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.pass == Pass::Racecheck && f.severity == Severity::Error),
        "{report}"
    );
}

#[test]
fn atomic_accumulation_is_clean() {
    let report = accumulation_kernel(true);
    assert!(report.is_clean(), "false positive:\n{report}");
}

#[test]
fn unified_kernels_are_sanitizer_clean() {
    let tensor = sample_tensor();
    let r = 8;
    for threadlen in [2, 8] {
        for fusion in [true, false] {
            let cfg = LaunchConfig {
                use_fusion: fusion,
                ..LaunchConfig::default()
            };
            let device = GpuDevice::titan_x();
            let mats = factors(&device, &tensor, r);
            let mat_refs: Vec<&DeviceMatrix> = mats.iter().collect();

            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
            assert!(sanitizer::check_fcoo(&fcoo).is_clean());
            let dev_fcoo = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
            device.start_recording();
            fcoo::spmttkrp(&device, &dev_fcoo, &mat_refs, &cfg).expect("spmttkrp");
            let report = sanitizer::analyze(&device.stop_recording());
            assert!(
                report.is_clean(),
                "spmttkrp threadlen {threadlen} fusion {fusion}:\n{report}"
            );

            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, threadlen);
            assert!(sanitizer::check_fcoo(&fcoo).is_clean());
            let dev_fcoo = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
            device.start_recording();
            fcoo::spttm(&device, &dev_fcoo, &mats[2], &cfg).expect("spttm");
            let report = sanitizer::analyze(&device.stop_recording());
            assert!(
                report.is_clean(),
                "spttm threadlen {threadlen} fusion {fusion}:\n{report}"
            );

            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 1 }, threadlen);
            assert!(sanitizer::check_fcoo(&fcoo).is_clean());
            let dev_fcoo = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
            device.start_recording();
            fcoo::spttmc(&device, &dev_fcoo, &mats[0], &mats[2], &cfg).expect("spttmc");
            let report = sanitizer::analyze(&device.stop_recording());
            assert!(
                report.is_clean(),
                "spttmc threadlen {threadlen} fusion {fusion}:\n{report}"
            );
        }
    }
}

#[test]
fn tiled_spttmc_launches_are_race_free() {
    // SpTTMc at rank 4 and 8 computes 2 and 8 Kronecker columns per block:
    // a block's lanes write consecutive output columns of one row, and the
    // boundary segments of neighbouring partitions still meet only through
    // atomics — under segmented scan, the atomic ablation and the unfused
    // variant alike.
    let tensor = sample_tensor();
    let op = TensorOp::SpTtmc { mode: 1 };
    for (r, tile) in [(4, 2), (8, 8)] {
        for cfg in [
            LaunchConfig::with_block_size(32),
            LaunchConfig {
                use_segscan: false,
                ..LaunchConfig::with_block_size(32)
            },
            LaunchConfig {
                use_fusion: false,
                ..LaunchConfig::with_block_size(32)
            },
        ] {
            let tiling = fcoo::ColumnTiling::for_op(op, &[r, r]);
            assert_eq!(tiling.tile, tile);
            let device = GpuDevice::titan_x();
            let mats = factors(&device, &tensor, r);
            let fcoo = Fcoo::from_coo(&tensor, op, 2);
            let dev_fcoo = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
            device.start_recording();
            fcoo::spttmc(&device, &dev_fcoo, &mats[0], &mats[2], &cfg).expect("spttmc");
            let log = device.stop_recording();
            let grid = (fcoo.partitions().div_ceil(32), r * r / tile);
            assert_eq!(log.launches[0].grid, grid, "rank {r}: launch is not tiled");
            let races = sanitizer::racecheck::check(&log);
            assert!(races.is_clean(), "rank {r} {cfg:?}:\n{races}");
            let report = sanitizer::analyze(&log);
            assert!(report.is_clean(), "rank {r} {cfg:?}:\n{report}");
        }
    }
}

#[test]
fn ablation_kernel_without_segscan_is_clean() {
    let tensor = sample_tensor();
    let cfg = LaunchConfig {
        use_segscan: false,
        use_rocache: false,
        ..LaunchConfig::default()
    };
    let device = GpuDevice::titan_x();
    let mats = factors(&device, &tensor, 4);
    let mat_refs: Vec<&DeviceMatrix> = mats.iter().collect();
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 1 }, 4);
    let dev_fcoo = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
    device.start_recording();
    fcoo::spmttkrp(&device, &dev_fcoo, &mat_refs, &cfg).expect("spmttkrp");
    let report = sanitizer::analyze(&device.stop_recording());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn two_step_method_is_sanitizer_clean() {
    let tensor = sample_tensor();
    let device = GpuDevice::titan_x();
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &size)| DenseMatrix::random(size, 6, 7 + m as u64))
        .collect();
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    device.start_recording();
    fcoo::spmttkrp_two_step_unified(&device, &tensor, 0, &host_refs, 4, &LaunchConfig::default())
        .expect("two-step");
    let report = sanitizer::analyze(&device.stop_recording());
    assert!(report.is_clean(), "{report}");
}

/// The serving layer's retry contract, checked at the sanitizer level: under
/// injected corrupting faults (failed launches, dropped atomics), each
/// attempt's recording is discarded whenever the post-attempt scrub reports a
/// corrupting event, and the first surviving attempt both analyzes clean and
/// reproduces the fault-free result bit for bit.
#[test]
fn faulted_attempts_are_discarded_and_the_retry_replays_clean() {
    let tensor = sample_tensor();
    let cfg = LaunchConfig::default();
    let build = |device: &GpuDevice| {
        let mats = factors(device, &tensor, 8);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 4);
        let dev_fcoo = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
        (mats, dev_fcoo)
    };

    let reference = {
        let device = GpuDevice::titan_x();
        let (mats, dev_fcoo) = build(&device);
        let mat_refs: Vec<&DeviceMatrix> = mats.iter().collect();
        fcoo::spmttkrp(&device, &dev_fcoo, &mat_refs, &cfg)
            .expect("reference")
            .0
    };

    let device = GpuDevice::titan_x();
    // Upload inputs before installing the injector so the schedule only hits
    // the attempts themselves, never the one-time setup.
    let (mats, dev_fcoo) = build(&device);
    let mat_refs: Vec<&DeviceMatrix> = mats.iter().collect();
    let faults = FaultConfig {
        launch_failure_rate: 0.6,
        dropped_atomic_rate: 0.6,
        ..FaultConfig::quiet(40)
    };
    device.memory().install_faults(faults);

    let mut corrupted_attempts = 0;
    let mut survivor = None;
    for _attempt in 0..16 {
        device.start_recording();
        let (result, _) = fcoo::spmttkrp(&device, &dev_fcoo, &mat_refs, &cfg).expect("spmttkrp");
        let log = device.stop_recording();
        // Integrity barrier: any corrupting event voids the attempt — its
        // result *and* its recording are discarded together.
        let events = device.memory().scrub_faults();
        if events.iter().any(FaultEvent::is_corrupting) {
            corrupted_attempts += 1;
            continue;
        }
        survivor = Some((result, log));
        break;
    }
    device.memory().clear_faults();

    assert!(
        corrupted_attempts >= 1,
        "fault schedule never corrupted an attempt; pick another seed"
    );
    let (result, log) = survivor.expect("retry budget exhausted without a clean attempt");
    let report = sanitizer::analyze(&log);
    assert!(report.is_clean(), "surviving attempt's log:\n{report}");
    assert_eq!(reference.data().len(), result.data().len());
    let bit_exact = reference
        .data()
        .iter()
        .zip(result.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bit_exact, "retried result diverged from the fault-free run");
}

#[test]
fn narrated_overrun_is_caught_by_the_shadow_map() {
    let device = GpuDevice::titan_x();
    let buffer = device.memory().alloc_zeroed::<f32>(8).expect("alloc");
    device.start_recording();
    device.launch((1, 1), 32, |ctx| {
        ctx.begin_warp();
        // Off-by-one narration: streams one element past the allocation.
        ctx.read_global_range(buffer.addr(0), 9 * 4);
    });
    let report = sanitizer::analyze(&device.stop_recording());
    assert_eq!(report.error_count(), 1, "{report}");
    assert!(
        report.findings.iter().any(|f| f.pass == Pass::Oob),
        "{report}"
    );
}

#[test]
fn unnarrated_traffic_fails_the_audit() {
    let device = GpuDevice::titan_x();
    let buffer = device
        .memory()
        .alloc_from_slice(&[1.0f32; 32])
        .expect("alloc");
    device.start_recording();
    device.launch((1, 1), 32, |ctx| {
        ctx.begin_warp();
        // Functional read with no narration: the cost model sees nothing.
        let _ = buffer.get(9);
    });
    let report = sanitizer::analyze(&device.stop_recording());
    assert!(!report.is_clean());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.pass == Pass::NarrationAudit),
        "{report}"
    );
}
