//! Out-of-core acceptance tests: a tensor whose F-COO working set exceeds
//! the device pool streams through the chunked pipeline bit-exactly, with
//! zero admission rejections, drained pool accounting, and a pipeline
//! makespan that actually beats running the chunks back to back.

use fcoo::{Fcoo, TensorOp};
use gpu_sim::{DeviceConfig, FaultConfig};
use serve::plan::SERVE_THREADLENS;
use serve::upload::FactorPlan;
use serve::{ExecTier, ProtocolEvent, ServeConfig, ServeEngine, Workload};
use tensor_core::datasets::{self, DatasetKind};

const NNZ: usize = 3000;
const TENSOR_SEED: u64 = 7;
const RANK: usize = 8;

fn ooc_workload() -> Workload {
    let text = "\
tensor big nell2 3000 7
request big mttkrp 0 8 0.0 11
request big mttkrp 0 8 5.0 12
request big mttkrp 0 8 10.0 13
";
    Workload::parse(text).expect("valid workload")
}

/// Device bytes one request needs beyond its format: the factors it
/// uploads, its output, allocator slack — the engine's transient sizing.
fn transient_bytes() -> usize {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, NNZ, TENSOR_SEED);
    let touched: Vec<Vec<u32>> = (0..tensor.order())
        .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
        .collect();
    FactorPlan::new(
        TensorOp::SpMttkrp { mode: 0 },
        tensor.shape(),
        &touched,
        RANK,
    )
    .transient_bytes(tensor.shape()[0] * RANK * 4)
}

/// Smallest F-COO footprint the tuner could possibly pick, so a capacity
/// below `transients + min_format` forces the out-of-core path regardless
/// of which threadlen wins.
fn min_format_bytes() -> usize {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, NNZ, TENSOR_SEED);
    SERVE_THREADLENS
        .iter()
        .map(|&tl| {
            Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, tl)
                .storage()
                .total_bytes()
                + 64
        })
        .min()
        .expect("non-empty grid")
}

/// Pool capacity that admits the transients with room for streaming chunks
/// but can never hold the full format.
fn ooc_capacity() -> usize {
    transient_bytes() + min_format_bytes() / 2
}

#[test]
fn oversized_tensor_serves_bit_exact_out_of_core() {
    let mut device_config = DeviceConfig::titan_x();
    device_config.memory_capacity = ooc_capacity();
    let mut engine = ServeEngine::new(ServeConfig {
        device_config,
        verify: true,
        ..ServeConfig::default()
    });
    let report = engine.run(&ooc_workload());
    assert!(
        report.rejections.is_empty(),
        "oversized tensor must stream, not reject: {:?}",
        report.rejections
    );
    assert_eq!(report.requests.len(), 3);
    for r in &report.requests {
        assert!(
            r.chunks >= 2,
            "request {} should have streamed in chunks, got {}",
            r.index,
            r.chunks
        );
        assert_eq!(r.tier, ExecTier::Unified, "request {} degraded", r.index);
        assert_eq!(r.retries, 0);
        assert_eq!(r.recovery_us, 0.0);
    }
    // Bit-exact against the raised-capacity one-shot reference.
    assert_eq!(report.verify_failures, 0, "chunked results drifted");
    assert!(report.verified > 0);
    // Chunk streaming never outgrew the pool...
    assert!(
        report.peak_bytes[0] <= report.capacity_bytes,
        "peak {} exceeded capacity {}",
        report.peak_bytes[0],
        report.capacity_bytes
    );
    // ...and every reservation (job transients + each chunk) drained.
    assert_eq!(
        engine.pool(0).reserved_bytes(),
        0,
        "chunk reservations leaked"
    );

    // The same workload on an unconstrained device serves in-core; the
    // chunked results must match it bit for bit.
    let mut unconstrained = ServeEngine::new(ServeConfig::default());
    let in_core = unconstrained.run(&ooc_workload());
    assert!(in_core.rejections.is_empty());
    for (chunked, whole) in report.requests.iter().zip(&in_core.requests) {
        assert_eq!(whole.chunks, 0, "unconstrained run should stay in-core");
        assert_eq!(
            chunked.checksum, whole.checksum,
            "request {} chunked result differs from in-core",
            chunked.index
        );
    }
}

#[test]
fn chunked_pipeline_beats_serial_chunks() {
    let mut device_config = DeviceConfig::titan_x();
    device_config.memory_capacity = ooc_capacity();
    // A tight explicit budget forces a deep chunk plan (>= 4 chunks) so
    // the overlap claim is about a real pipeline, not a 2-chunk accident.
    let mut engine = ServeEngine::new(ServeConfig {
        device_config,
        profile: true,
        ooc_chunk_budget: Some(min_format_bytes() / 8),
        ..ServeConfig::default()
    });
    let report = engine.run(&ooc_workload());
    assert!(report.rejections.is_empty());
    let profile = report.profile.as_ref().expect("profiling enabled");
    let mut saw_deep_pipeline = false;
    for r in &profile.requests {
        if r.chunks.len() < 4 {
            continue;
        }
        saw_deep_pipeline = true;
        let serial_us = r.h2d_us + r.kernel_us + r.d2h_us;
        let makespan_us = r.finish_us - r.start_us;
        assert!(
            makespan_us < serial_us,
            "request {}: pipeline makespan {makespan_us} did not beat the \
             serial chunk sum {serial_us} over {} chunks",
            r.index,
            r.chunks.len()
        );
        // Chunk spans tile the request window and stay stage-ordered.
        for pair in r.chunks.windows(2) {
            assert!(pair[0].h2d.1 <= pair[1].h2d.0, "H2D stream overlapped");
            assert!(
                pair[0].kernel.1 <= pair[1].kernel.0,
                "kernel stream overlapped"
            );
            assert!(pair[0].d2h.1 <= pair[1].d2h.0, "D2H stream overlapped");
        }
        for c in &r.chunks {
            assert!(c.h2d.1 <= c.kernel.0 && c.kernel.1 <= c.d2h.0);
        }
    }
    assert!(
        saw_deep_pipeline,
        "expected at least one request with a >= 4-chunk pipeline"
    );
    assert_eq!(engine.pool(0).reserved_bytes(), 0);
}

#[test]
fn chunked_chaos_loses_wrongs_and_leaks_nothing() {
    let mut device_config = DeviceConfig::titan_x();
    device_config.memory_capacity = ooc_capacity();
    let mut faulty = 0u32;
    for seed in [2024, 7, 99] {
        let mut engine = ServeEngine::new(ServeConfig {
            device_config: device_config.clone(),
            verify: true,
            fault_injection: Some(FaultConfig::chaos(seed, 0.05)),
            ..ServeConfig::default()
        });
        let report = engine.run(&ooc_workload());
        // Nothing lost: every request serves despite per-chunk faults.
        assert!(report.rejections.is_empty(), "seed {seed} rejected");
        assert_eq!(report.requests.len(), 3, "seed {seed} lost requests");
        // Nothing wrong: retried / reseeded chunks still verify bit-exactly.
        assert_eq!(report.verify_failures, 0, "seed {seed} wrong bits");
        // Nothing leaked: chunk-granular reservations all drained.
        assert_eq!(
            engine.pool(0).reserved_bytes(),
            0,
            "seed {seed} leaked chunk reservations"
        );
        assert!(report.peak_bytes[0] <= report.capacity_bytes);
        faulty += report.fault_stats.injected() as u32;
        for r in &report.requests {
            if r.retries > 0 {
                assert!(r.recovery_us > 0.0, "retries without recovery time");
            }
        }
    }
    assert!(faulty > 0, "chaos never actually injected a fault");
}

#[test]
fn transients_without_headroom_reject() {
    // Streaming can shrink the format's share of the device, never the
    // factors and output: when those alone fill it, the request is
    // rejected at admission and holds no pool bytes afterwards.
    let mut device_config = DeviceConfig::titan_x();
    device_config.memory_capacity = transient_bytes();
    let mut engine = ServeEngine::new(ServeConfig {
        device_config,
        ..ServeConfig::default()
    });
    engine.enable_protocol_log();
    let workload = Workload::parse("tensor big nell2 3000 7\nrequest big mttkrp 0 8 0.0 11\n")
        .expect("valid workload");
    let report = engine.run(&workload);
    assert!(report.requests.is_empty());
    assert_eq!(report.rejections.len(), 1, "{:?}", report.rejections);
    assert!(
        report.rejections[0]
            .reason
            .contains("no out-of-core headroom"),
        "{}",
        report.rejections[0].reason
    );
    let rejects = engine
        .take_protocol_log()
        .into_iter()
        .filter(|e| matches!(e, ProtocolEvent::AdmitReject { .. }))
        .count();
    assert_eq!(rejects, 1);
    assert_eq!(engine.pool(0).reserved_bytes(), 0);
}
