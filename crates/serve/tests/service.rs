//! Service-level tests: memory-pressure queueing and eviction, warm
//! restarts from a persisted plan directory, schedule determinism, and a
//! sanitizer replay proving plan reuse keeps kernel narration coverage.

use fcoo::{AnyFormat, Fcoo, FormatKind, TensorOp};
use gpu_sim::DeviceConfig;
use serve::plan::{format_bytes, SERVE_THREADLENS};
use serve::upload::{output_bytes, FactorPlan};
use serve::{ServeConfig, ServeEngine, Workload};
use tensor_core::datasets::{self, DatasetKind};

fn pressure_workload() -> Workload {
    let text = "\
tensor a nell2 1500 1
tensor b nell2 1500 2
request a mttkrp 0 8 0.0 11
request b mttkrp 0 8 0.0 12
request a mttkrp 0 8 0.0 13
request b mttkrp 0 8 0.0 14
request a mttkrp 0 8 0.0 15
request b mttkrp 0 8 0.0 16
";
    Workload::parse(text).expect("valid workload")
}

/// One SpMTTKRP mode-0 request's largest device working set, sized by the
/// engine's own rules: the largest format the tuner could pick plus the
/// request's compact factors, one-row-per-segment output and allocator
/// slack.
fn max_working_set(nnz: usize, seed: u64, rank: usize) -> usize {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, seed);
    let op = TensorOp::SpMttkrp { mode: 0 };
    let format = SERVE_THREADLENS
        .iter()
        .map(|&tl| format_bytes(&AnyFormat::build(FormatKind::Fcoo, &tensor, op, tl)))
        .max()
        .expect("non-empty grid");
    let touched: Vec<Vec<u32>> = (0..tensor.order())
        .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
        .collect();
    let transient = FactorPlan::new(op, tensor.shape(), &touched, rank)
        .transient_bytes(output_bytes(&Fcoo::from_coo(&tensor, op, 8), rank));
    format + transient
}

#[test]
fn memory_pressure_queues_and_evicts_without_failing() {
    let ws = max_working_set(1500, 1, 8).max(max_working_set(1500, 2, 8));
    // Room for one job's working set at a time, never two.
    let mut device_config = DeviceConfig::titan_x();
    device_config.memory_capacity = ws + 4096;
    let mut engine = ServeEngine::new(ServeConfig {
        device_config,
        verify: true,
        ..ServeConfig::default()
    });
    let report = engine.run(&pressure_workload());
    assert!(
        report.rejections.is_empty(),
        "pressure must queue, not reject: {:?}",
        report.rejections
    );
    assert_eq!(report.requests.len(), 6);
    assert!(
        report.deferred > 0,
        "expected admission control to defer jobs"
    );
    assert!(
        report.pool_stats[0].evictions > 0,
        "expected LRU eviction of cached formats: {:?}",
        report.pool_stats[0]
    );
    assert!(
        report.peak_bytes[0] <= report.capacity_bytes,
        "peak {} exceeded capacity {}",
        report.peak_bytes[0],
        report.capacity_bytes
    );
    assert_eq!(report.verify_failures, 0, "queueing changed results");
    // Deferred jobs paid queue time.
    assert!(report.requests.iter().any(|r| r.queue_us() > 0.0));
    // Queueing is not recovery: without fault injection the recovery
    // accounting must stay at its clean-path zero even for deferred jobs.
    for r in &report.requests {
        assert_eq!(
            r.recovery_us, 0.0,
            "request {} leaked recovery time",
            r.index
        );
        assert_eq!(r.retries, 0, "request {} leaked retries", r.index);
        assert_eq!(r.faults_seen, 0, "request {} saw phantom faults", r.index);
    }
}

#[test]
fn clean_path_latency_accounting_is_exact() {
    // No fault injection: every recovery/fault field must be exactly its
    // clean-path zero (not merely small), the ladder must never degrade,
    // and the lifecycle timestamps must tile without slack:
    // finish = start + recovery (= 0) + exec, bit for bit.
    let workload = serve::synthetic(50, 17);
    let mut engine = ServeEngine::new(ServeConfig::default());
    let report = engine.run(&workload);
    assert!(report.rejections.is_empty());
    assert!(!report.requests.is_empty());
    assert_eq!(report.fault_stats.injected(), 0);
    assert_eq!(report.fault_stats.retries, 0);
    for r in &report.requests {
        let label = format!("request {} ({:?})", r.index, r.op);
        assert_eq!(
            r.recovery_us.to_bits(),
            0.0f64.to_bits(),
            "{label}: recovery_us"
        );
        assert_eq!(r.retries, 0, "{label}: retries");
        assert_eq!(r.faults_seen, 0, "{label}: faults_seen");
        assert_eq!(
            r.tier,
            serve::ExecTier::Unified,
            "{label}: degraded without faults"
        );
        assert!(r.queue_us() >= 0.0, "{label}: negative queue time");
        assert!(r.exec_us > 0.0, "{label}: free execution");
        assert_eq!(
            r.finish_us.to_bits(),
            (r.start_us + r.exec_us).to_bits(),
            "{label}: finish != start + exec on the clean path \
             (queue {} exec {} recovery {})",
            r.queue_us(),
            r.exec_us,
            r.recovery_us
        );
    }
    // First request on an idle stream starts the moment it arrives.
    let first = &report.requests[0];
    assert_eq!(
        first.queue_us(),
        0.0,
        "first request queued on an idle engine"
    );
}

#[test]
fn warm_restart_loads_plans_from_disk() {
    let dir = std::env::temp_dir().join("serve_test_warm_restart_plans");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp plan dir");
    let workload = serve::synthetic(40, 9);
    let config = ServeConfig {
        plan_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let cold = ServeEngine::new(config.clone()).run(&workload);
    assert!(cold.plan_stats.builds > 0);
    assert_eq!(cold.plan_stats.disk_hits, 0);
    // A fresh engine (fresh process, same plan dir) rebuilds nothing.
    let warm = ServeEngine::new(config).run(&workload);
    assert_eq!(warm.plan_stats.builds, 0, "warm restart rebuilt plans");
    assert_eq!(warm.plan_stats.disk_hits, cold.plan_stats.builds);
    // Loaded plans compute the same bits.
    for (c, w) in cold.requests.iter().zip(&warm.requests) {
        assert_eq!(c.checksum, w.checksum, "request {} drifted", c.index);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_plan_files_fall_back_to_rebuild() {
    let dir = std::env::temp_dir().join("serve_test_corrupt_plans");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp plan dir");
    let workload = serve::synthetic(20, 3);
    let config = ServeConfig {
        plan_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let cold = ServeEngine::new(config.clone()).run(&workload);
    assert!(cold.plan_stats.builds > 0);
    // Truncate every persisted plan to a few bytes.
    for entry in std::fs::read_dir(&dir).expect("plan dir") {
        let path = entry.expect("entry").path();
        std::fs::write(&path, b"SPLN").expect("truncate");
    }
    let recovered = ServeEngine::new(config).run(&workload);
    assert_eq!(recovered.plan_stats.disk_hits, 0);
    assert_eq!(recovered.plan_stats.builds, cold.plan_stats.builds);
    for (c, r) in cold.requests.iter().zip(&recovered.requests) {
        assert_eq!(c.checksum, r.checksum);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_plans_stay_sanitizer_clean() {
    // Plan reuse must not skip the kernels' narration or introduce races:
    // record a second pass that hits every cached plan and replay it under
    // the sanitizer. Fresh factor seeds keep the result cache from
    // answering it, so its kernels really run.
    let workload = serve::synthetic(16, 21);
    let mut fresh_seeds = workload.clone();
    for request in &mut fresh_seeds.requests {
        request.factor_seed ^= 0x5eed_f00d;
    }
    let mut engine = ServeEngine::new(ServeConfig::default());
    let cold = engine.run(&workload);
    assert!(cold.plan_stats.builds > 0);
    engine.device(0).start_recording();
    let hot = engine.run(&fresh_seeds);
    let log = engine.device(0).stop_recording();
    assert_eq!(
        hot.plan_stats.builds, cold.plan_stats.builds,
        "no new builds"
    );
    assert!(hot.batched < hot.requests.len(), "every request replayed");
    assert!(log.event_count() > 0, "cache-hit pass still runs kernels");
    let report = sanitizer::analyze(&log);
    assert_eq!(
        report.error_count(),
        0,
        "plan reuse broke sanitizer cleanliness: {report}"
    );
}
