//! Fault-tolerance tests: chaos runs must lose nothing and corrupt nothing,
//! recovery must be deterministic, disabled injection must be free, and the
//! result checksum must be order-independent yet bit-flip-sensitive.

use gpu_sim::FaultConfig;
use proptest::prelude::*;
use serve::engine::JobOutput;
use serve::{workload, ExecTier, ServeConfig, ServeEngine};
use tensor_core::DenseMatrix;

fn chaos_config(rate: f64, devices: usize) -> ServeConfig {
    ServeConfig {
        devices,
        verify: true,
        fault_injection: Some(FaultConfig::chaos(2024, rate)),
        ..ServeConfig::default()
    }
}

/// The headline guarantee: a workload served under all five fault kinds
/// completes with zero lost requests, zero wrong results, and the pools'
/// bytes-in-use back at zero.
#[test]
fn chaos_run_loses_nothing_and_corrupts_nothing() {
    let w = workload::synthetic(120, 2017);
    let mut engine = ServeEngine::new(chaos_config(0.02, 2));
    let report = engine.run(&w);
    // Zero lost: every request is either served or (here, never) rejected.
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert_eq!(report.requests.len(), w.requests.len());
    // Zero wrong: every unique result is bit-exact with a clean re-run of
    // the tier that produced it.
    assert!(report.verified > 0);
    assert_eq!(report.verify_failures, 0);
    // The schedule actually injected and the engine actually recovered.
    assert!(
        report.fault_stats.injected() > 0,
        "{:?}",
        report.fault_stats
    );
    assert!(report.fault_stats.retries > 0, "{:?}", report.fault_stats);
    // Zero leaked: transient reservations all returned.
    for d in 0..2 {
        assert_eq!(engine.pool(d).reserved_bytes(), 0, "device {d} leaked");
    }
    // Recovery costs are visible in the report.
    let recovered: Vec<_> = report.requests.iter().filter(|r| r.retries > 0).collect();
    assert!(!recovered.is_empty());
    for r in recovered {
        assert!(r.recovery_us > 0.0, "retried request charges dead time");
    }
    let rendered = report.render();
    assert!(rendered.contains("faults:"), "{rendered}");
    assert!(rendered.contains("recovery:"), "{rendered}");
}

/// Same workload + same fault seed ⇒ identical reports, request by request.
#[test]
fn recovery_is_deterministic_across_engines() {
    let w = workload::synthetic(60, 7);
    let run = || {
        let mut engine = ServeEngine::new(chaos_config(0.03, 2));
        let report = engine.run(&w);
        (
            report.requests.clone(),
            report.fault_stats,
            report.makespan_us,
        )
    };
    let (reqs_a, stats_a, makespan_a) = run();
    let (reqs_b, stats_b, makespan_b) = run();
    assert_eq!(stats_a, stats_b);
    assert_eq!(makespan_a, makespan_b);
    assert_eq!(reqs_a.len(), reqs_b.len());
    for (a, b) in reqs_a.iter().zip(&reqs_b) {
        assert_eq!(a, b, "request {} diverged between runs", a.index);
    }
}

/// With injection disabled, the fault machinery must be invisible: no
/// events, no retries, every request on the unified tier with zero recovery
/// time — and the report identical regardless of the tolerance knobs.
#[test]
fn disabled_injection_is_free() {
    let w = workload::synthetic(30, 5);
    let mut plain = ServeEngine::new(ServeConfig {
        verify: true,
        ..ServeConfig::default()
    });
    let mut tuned = ServeEngine::new(ServeConfig {
        verify: true,
        fault_tolerance: serve::FaultTolerance {
            max_retries: 1,
            redundancy_rate: 0.9,
            quarantine_threshold: 1,
            plan_fault_threshold: 1,
        },
        ..ServeConfig::default()
    });
    let a = plain.run(&w);
    let b = tuned.run(&w);
    assert_eq!(a.fault_stats, serve::FaultStats::default());
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.requests, b.requests);
    // Renders match except the preprocessing line, which reports host
    // wall-clock build time and is inherently run-to-run noisy.
    let stable = |report: &serve::ServeReport| {
        report
            .render()
            .lines()
            .filter(|l| !l.contains("preprocessing:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&a), stable(&b));
    assert!(!a.render().contains("faults:"));
    for r in &a.requests {
        assert_eq!(r.tier, ExecTier::Unified);
        assert_eq!(r.retries, 0);
        assert_eq!(r.faults_seen, 0);
        assert_eq!(r.recovery_us, 0.0);
    }
}

/// Sampled redundant re-execution runs clean attempts twice and accepts
/// matching pairs without corrupting anything.
#[test]
fn redundancy_sampling_checks_results() {
    let w = workload::synthetic(40, 9);
    let mut engine = ServeEngine::new(ServeConfig {
        devices: 2,
        verify: true,
        fault_injection: Some(FaultConfig::chaos(11, 0.01)),
        fault_tolerance: serve::FaultTolerance {
            redundancy_rate: 0.5,
            ..serve::FaultTolerance::default()
        },
        ..ServeConfig::default()
    });
    let report = engine.run(&w);
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert!(report.fault_stats.redundant_checks > 0);
    assert_eq!(report.verify_failures, 0);
}

/// A fault schedule aggressive enough to exhaust retries pushes requests
/// down the degradation ladder, and the degraded results still verify.
#[test]
fn heavy_faults_degrade_down_the_ladder() {
    let w = workload::synthetic(40, 3);
    let mut engine = ServeEngine::new(ServeConfig {
        verify: true,
        fault_injection: Some(FaultConfig::chaos(5, 0.30)),
        fault_tolerance: serve::FaultTolerance {
            max_retries: 1,
            ..serve::FaultTolerance::default()
        },
        ..ServeConfig::default()
    });
    let report = engine.run(&w);
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert_eq!(report.requests.len(), w.requests.len());
    assert_eq!(report.verify_failures, 0);
    let fallbacks = report.fault_stats.two_step_fallbacks + report.fault_stats.cpu_fallbacks;
    assert!(fallbacks > 0, "{:?}", report.fault_stats);
    assert!(
        report.requests.iter().any(|r| r.tier != ExecTier::Unified),
        "some request should have been served by a fallback tier"
    );
    assert_eq!(engine.pool(0).reserved_bytes(), 0);
}

/// A CP-ALS job whose device fails every allocation — at least nine in a
/// row inside one job — retries, degrades to the host tier and completes
/// verified instead of panicking the engine.
#[test]
fn cp_job_outlives_consecutive_allocation_failures() {
    let mut engine = ServeEngine::new(ServeConfig {
        verify: true,
        fault_injection: Some(FaultConfig::quiet(9)),
        fault_tolerance: serve::FaultTolerance {
            max_retries: 10,
            ..serve::FaultTolerance::default()
        },
        ..ServeConfig::default()
    });
    // A clean warm-up leaves every per-mode format resident, so the job
    // below allocates nothing but its own transients.
    let warm = serve::Workload::parse("tensor t nell2 900 3\nrequest t cp 2 4 0.0 21\n")
        .expect("valid workload");
    let report = engine.run(&warm);
    assert_eq!(report.requests.len(), 1, "{:?}", report.rejections);
    let before = engine.fault_stats();
    engine.device(0).memory().install_faults(FaultConfig {
        alloc_failure_rate: 1.0,
        ..FaultConfig::quiet(9)
    });
    let job = serve::Workload::parse("request t cp 2 4 1000.0 22\n").expect("valid workload");
    let report = engine.run(&job);
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert_eq!(report.requests.len(), 1);
    let r = &report.requests[0];
    assert_eq!(r.tier, ExecTier::Cpu);
    assert!(r.retries >= 9, "{} retries", r.retries);
    let failed = engine.fault_stats().alloc_failures - before.alloc_failures;
    assert!(failed >= 9, "{failed} injected allocation failures");
    assert_eq!(report.verify_failures, 0);
    assert_eq!(engine.pool(0).reserved_bytes(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single mantissa bit of any element changes the checksum
    /// — the float-sum checksum this replaces absorbed such flips into
    /// rounding. (The splitmix64 mix is a bijection, so the two elements'
    /// mixed words differ and the wrapping sum must move.)
    #[test]
    fn checksum_detects_any_single_bit_flip(
        values in proptest::collection::vec(-100.0f32..100.0, 1..48),
        pick in 0usize..48,
        bit in 0u32..23,
    ) {
        let n = values.len();
        let original = JobOutput::Dense(DenseMatrix::from_vec(n, 1, values.clone()));
        let mut flipped = values.clone();
        let i = pick % n;
        flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << bit));
        let mutated = JobOutput::Dense(DenseMatrix::from_vec(n, 1, flipped));
        prop_assert_ne!(original.checksum(), mutated.checksum());
    }

    /// The checksum is order-independent: any rotation of the same elements
    /// (a stand-in for nondeterministic atomic accumulation order) checksums
    /// identically.
    #[test]
    fn checksum_is_order_independent(
        values in proptest::collection::vec(-100.0f32..100.0, 2..48),
        rot in 1usize..47,
    ) {
        let n = values.len();
        let original = JobOutput::Dense(DenseMatrix::from_vec(n, 1, values.clone()));
        let mut rotated = values.clone();
        rotated.rotate_left(rot % n);
        let permuted = JobOutput::Dense(DenseMatrix::from_vec(n, 1, rotated));
        prop_assert_eq!(original.checksum(), permuted.checksum());
    }
}
