//! Tracing is observation only.
//!
//! The profiling layer hooks the same narration calls the timing model
//! already accounts, so enabling it must change nothing: every kernel
//! output stays bit-exact, every simulated duration keeps the same `f64`
//! bit pattern, and a served workload keeps its exact makespan. These tests
//! run each of the four kernels — and a full serving workload — with
//! tracing on and off and compare at the bit level.

use unified_tensors::fcoo::{spmttkrp_two_step_unified, spttmc_norder, AnyFormat, FormatKind};
use unified_tensors::prelude::*;
use unified_tensors::serve::plan::{format_bytes, SERVE_THREADLENS};
use unified_tensors::serve::upload::{output_bytes, FactorPlan};

fn tensor() -> SparseTensorCoo {
    datasets::generate(DatasetKind::Nell2, 1_200, 99).0
}

fn factors(tensor: &SparseTensorCoo, rank: usize) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect()
}

/// Runs one op on a fresh device, optionally traced, and returns the output
/// values, the simulated duration, and the drained launch durations.
fn run_op(op: &str, traced: bool) -> (Vec<u32>, u64, Vec<u64>) {
    let tensor = tensor();
    let rank = 8;
    let device = GpuDevice::titan_x();
    if traced {
        device.start_tracing();
    }
    let cfg = LaunchConfig::default();
    let hosts = factors(&tensor, rank);
    let (values, time_us): (Vec<f32>, f64) = match op {
        "two-step" => {
            let refs: Vec<&DenseMatrix> = hosts.iter().collect();
            let outcome = spmttkrp_two_step_unified(&device, &tensor, 0, &refs, 16, &cfg)
                .expect("two-step run");
            (outcome.result.data().to_vec(), outcome.stats.time_us)
        }
        _ => {
            let tensor_op = match op {
                "spttm" => TensorOp::SpTtm { mode: 0 },
                "mttkrp" => TensorOp::SpMttkrp { mode: 0 },
                "ttmc" => TensorOp::SpTtmc { mode: 0 },
                other => panic!("unknown op {other}"),
            };
            let fcoo = Fcoo::from_coo(&tensor, tensor_op, 16);
            let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
            let uploaded: Vec<DeviceMatrix> = hosts
                .iter()
                .map(|f| DeviceMatrix::upload(device.memory(), f).expect("factor upload"))
                .collect();
            match tensor_op {
                TensorOp::SpTtm { mode } => {
                    let (result, stats) =
                        spttm(&device, &on_device, &uploaded[mode], &cfg).expect("spttm");
                    (result.values().to_vec(), stats.time_us)
                }
                TensorOp::SpMttkrp { .. } => {
                    let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
                    let (result, stats) =
                        spmttkrp(&device, &on_device, &refs, &cfg).expect("spmttkrp");
                    (result.data().to_vec(), stats.time_us)
                }
                TensorOp::SpTtmc { .. } => {
                    let product: Vec<&DeviceMatrix> = on_device
                        .classification
                        .product_modes
                        .iter()
                        .map(|&m| &uploaded[m])
                        .collect();
                    let (result, stats) =
                        spttmc_norder(&device, &on_device, &product, &cfg).expect("spttmc");
                    (result.data().to_vec(), stats.time_us)
                }
            }
        }
    };
    let launches = if traced {
        device
            .stop_tracing()
            .launches
            .iter()
            .map(|l| l.time_us.to_bits())
            .collect()
    } else {
        Vec::new()
    };
    (
        values.iter().map(|v| v.to_bits()).collect(),
        time_us.to_bits(),
        launches,
    )
}

#[test]
fn tracing_leaves_all_four_kernels_bit_exact() {
    for op in ["spttm", "mttkrp", "ttmc", "two-step"] {
        let (plain_values, plain_time, _) = run_op(op, false);
        let (traced_values, traced_time, launch_times) = run_op(op, true);
        assert_eq!(
            plain_values, traced_values,
            "{op}: output drifted under tracing"
        );
        assert_eq!(
            plain_time, traced_time,
            "{op}: simulated duration drifted under tracing"
        );
        assert!(
            !launch_times.is_empty(),
            "{op}: tracing captured no launches"
        );
        // The trace's own timeline reproduces the timing model bit for bit:
        // launch durations sum (in issue order) to the kernel's duration,
        // exactly as `KernelStats::merge` folds them.
        let summed: f64 = launch_times.iter().map(|&b| f64::from_bits(b)).sum();
        assert_eq!(
            summed.to_bits(),
            traced_time,
            "{op}: trace timeline disagrees with KernelStats"
        );
    }
}

#[test]
fn profiling_a_served_workload_keeps_the_exact_makespan() {
    let workload = unified_tensors::serve::synthetic(40, 11);
    let run = |profile: bool| {
        let mut engine = ServeEngine::new(ServeConfig {
            profile,
            ..ServeConfig::default()
        });
        engine.run(&workload)
    };
    let plain = run(false);
    let profiled = run(true);
    assert_eq!(
        plain.makespan_us.to_bits(),
        profiled.makespan_us.to_bits(),
        "profiling changed the served makespan"
    );
    assert_eq!(plain.requests.len(), profiled.requests.len());
    for (p, q) in plain.requests.iter().zip(&profiled.requests) {
        assert_eq!(p.arrival_us.to_bits(), q.arrival_us.to_bits());
        assert_eq!(p.start_us.to_bits(), q.start_us.to_bits());
        assert_eq!(p.finish_us.to_bits(), q.finish_us.to_bits());
    }
    assert!(plain.profile.is_none());
    assert!(profiled.profile.is_some());
}

/// Out-of-core requests stay observation-only too: profiling a chunked
/// workload changes neither the results nor the schedule, and the exported
/// Perfetto trace shows the pipeline's stage overlap — some chunk's H2D
/// runs while the previous chunk's kernel is still in flight.
#[test]
fn profiling_a_chunked_workload_is_bit_exact_and_shows_overlap() {
    let workload = Workload::parse(
        "tensor big nell2 3000 7\n\
         request big mttkrp 0 8 0.0 11\n\
         request big mttkrp 0 8 5.0 12\n",
    )
    .expect("valid workload");
    // Capacity below the smallest tunable format forces chunked streaming,
    // sized by the engine's own rules: the request's transients plus half
    // the smallest format leave a chunk budget (at most half the headroom)
    // of at most a quarter of it, a deep pipeline.
    let op = TensorOp::SpMttkrp { mode: 0 };
    let (big, _) = datasets::generate(DatasetKind::Nell2, 3000, 7);
    let touched: Vec<Vec<u32>> = (0..big.order())
        .map(|m| unified_tensors::fcoo::touched_rows(big.mode_indices(m)))
        .collect();
    let transients = FactorPlan::new(op, big.shape(), &touched, 8)
        .transient_bytes(output_bytes(&Fcoo::from_coo(&big, op, 8), 8));
    let min_format = SERVE_THREADLENS
        .iter()
        .map(|&tl| format_bytes(&AnyFormat::build(FormatKind::Fcoo, &big, op, tl)))
        .min()
        .expect("non-empty grid");
    let mut device_config = DeviceConfig::titan_x();
    device_config.memory_capacity = transients + min_format / 2;
    let run = |profile: bool| {
        let mut engine = ServeEngine::new(ServeConfig {
            device_config: device_config.clone(),
            profile,
            ..ServeConfig::default()
        });
        engine.run(&workload)
    };
    let plain = run(false);
    let profiled = run(true);
    assert!(plain.rejections.is_empty(), "{:?}", plain.rejections);
    assert_eq!(
        plain.makespan_us.to_bits(),
        profiled.makespan_us.to_bits(),
        "profiling changed the chunked makespan"
    );
    for (p, q) in plain.requests.iter().zip(&profiled.requests) {
        assert!(
            p.chunks.len() >= 4,
            "request {} did not stream deeply",
            p.index
        );
        assert_eq!(p.chunks, q.chunks);
        assert_eq!(p.checksum, q.checksum, "profiling changed chunked bits");
        assert_eq!(p.start_us.to_bits(), q.start_us.to_bits());
        assert_eq!(p.finish_us.to_bits(), q.finish_us.to_bits());
    }

    let profile = profiled.profile.expect("profiling enabled");
    let mut overlapped = false;
    for request in &profile.requests {
        for pair in request.chunks.windows(2) {
            // Genuine cross-stage concurrency: the next chunk's upload and
            // this chunk's kernel occupy overlapping wall-clock intervals.
            let (h2d, kernel) = (pair[1].h2d, pair[0].kernel);
            if h2d.0 < kernel.1 && kernel.0 < h2d.1 {
                overlapped = true;
            }
        }
    }
    assert!(overlapped, "no chunk pipeline overlap in the profile");
    let trace = profile.chrome_trace();
    assert!(trace.validate().is_empty(), "{:?}", trace.validate());
    let json = trace.to_json();
    assert!(json.contains("exec (ooc"), "no out-of-core exec span");
    assert!(json.contains("chunk0 h2d"), "no per-chunk transfer spans");
    assert!(json.contains("chunk1 kernel"), "no per-chunk kernel spans");
}

#[test]
fn two_profiled_runs_emit_byte_identical_traces() {
    let workload = unified_tensors::serve::synthetic(60, 2017);
    let trace_json = || {
        let mut engine = ServeEngine::new(ServeConfig {
            profile: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&workload);
        let profile = report.profile.unwrap();
        let trace = profile.chrome_trace();
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        (trace.to_json(), profile.counter_report())
    };
    let (json_a, report_a) = trace_json();
    let (json_b, report_b) = trace_json();
    assert_eq!(json_a, json_b, "same workload, different trace bytes");
    assert_eq!(report_a, report_b);
    assert!(json_a.starts_with('{') && json_a.contains("\"traceEvents\""));
}
