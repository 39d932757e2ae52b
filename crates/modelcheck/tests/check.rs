//! The checker's own acceptance suite: the faithful protocol proves all
//! four properties on every standard scenario, every seeded mutation is
//! refuted with a concrete counterexample schedule, and the property
//! automata replay cleanly over a real chaos-mode engine log.

use modelcheck::scenario::{self, Mutation};
use modelcheck::{check, explore, trace, Property};
use serve::{ExecTier, ProtocolEvent};

/// Request `request`'s narration of its exhausted chunk, as event names:
/// from the reservation it opened last before it degraded from the unified
/// tier to the host, through that `Degrade`.
fn exhausted_chunk(log: &[ProtocolEvent], request: u64) -> Vec<String> {
    let prefix = format!("request {request} ");
    let own: Vec<&ProtocolEvent> = log
        .iter()
        .filter(|e| e.to_string().starts_with(&prefix))
        .collect();
    let host = own
        .iter()
        .position(|e| {
            matches!(
                e,
                ProtocolEvent::Degrade {
                    from: ExecTier::Unified,
                    to: ExecTier::Cpu,
                    ..
                }
            )
        })
        .expect("the request takes the host rung");
    let reserve = own[..host]
        .iter()
        .rposition(|e| matches!(e, ProtocolEvent::ReservePending { .. }))
        .expect("the exhausted chunk opened a reservation");
    own[reserve..=host]
        .iter()
        .map(|e| {
            format!("{e:?}")
                .split(' ')
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// The engine's narration of a chunk that runs out of retries: its one
/// reservation, held across every attempt, then released before the
/// request degrades to the host.
fn exhausted_chunk_order(max_retries: usize) -> Vec<String> {
    let mut order = vec!["ReservePending"];
    for _ in 0..=max_retries {
        order.extend(["AttemptStart", "Scrub", "Backoff"]);
    }
    order.extend(["Release", "Degrade"]);
    order.into_iter().map(String::from).collect()
}

/// A serve engine whose device holds the transients of a nell2 SpMTTKRP
/// request (3000 nnz, rank 8) but never its whole format, so the request
/// streams out of core, injecting `faults`.
fn ooc_engine(faults: gpu_sim::FaultConfig) -> serve::ServeEngine {
    use fcoo::{AnyFormat, FormatKind, TensorOp};
    use tensor_core::datasets::{self, DatasetKind};
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 7);
    let op = TensorOp::SpMttkrp { mode: 0 };
    let touched: Vec<Vec<u32>> = (0..tensor.order())
        .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
        .collect();
    let transients =
        serve::upload::FactorPlan::new(op, tensor.shape(), &touched, 8).transient_bytes(
            serve::upload::output_bytes(&fcoo::Fcoo::from_coo(&tensor, op, 8), 8),
        );
    let min_format = serve::plan::SERVE_THREADLENS
        .iter()
        .map(|&tl| serve::plan::format_bytes(&AnyFormat::build(FormatKind::Fcoo, &tensor, op, tl)))
        .min()
        .expect("non-empty grid");
    let mut device_config = gpu_sim::DeviceConfig::titan_x();
    device_config.memory_capacity = transients + min_format / 2;
    let mut engine = serve::ServeEngine::new(serve::ServeConfig {
        device_config,
        verify: true,
        fault_injection: Some(faults),
        ..serve::ServeConfig::default()
    });
    engine.enable_protocol_log();
    engine
}

/// The issue's acceptance scenario — 4 requests × 2 devices × 1 injected
/// fault — is explored exhaustively and all four properties are proved,
/// with nontrivial coverage counts reported.
#[test]
fn acceptance_scenario_proves_all_properties() {
    let report = check(&scenario::acceptance(), Mutation::None);
    assert!(report.all_proved(), "{}", report.render());
    assert!(
        report.full.states > 100,
        "suspiciously few states: {}",
        report.full.states
    );
    assert!(
        report.full.interleavings > 100,
        "suspiciously few interleavings: {}",
        report.full.interleavings
    );
    assert!(report.full.transitions > report.full.states as u64);
    let rendered = report.render();
    for p in Property::ALL {
        assert!(rendered.contains(p.label()), "{rendered}");
    }
    assert!(rendered.contains("PROVED"), "{rendered}");
}

/// Every standard scenario proves everything under the faithful protocol.
#[test]
fn standard_scenarios_all_prove() {
    for sc in scenario::standard() {
        let report = check(&sc, Mutation::None);
        assert!(
            report.all_proved(),
            "scenario `{}` refuted something:\n{}",
            sc.name,
            report.render()
        );
    }
}

/// The mutation self-test: each seeded protocol bug is refuted on its
/// witness scenario with a concrete, narrated counterexample — while the
/// faithful protocol proves the same property on the same scenario.
#[test]
fn seeded_mutations_are_refuted_with_counterexamples() {
    let suite = scenario::mutation_suite();
    assert!(suite.len() >= 3);
    for (mutation, sc, property) in suite {
        let base = explore::explore(&sc, Mutation::None);
        assert!(
            !base.refutes(property),
            "faithful protocol already refutes {} on `{}`",
            property.label(),
            sc.name
        );
        let mutated = explore::explore(&sc, mutation);
        let ce = mutated.counterexample(property).unwrap_or_else(|| {
            panic!(
                "mutation {} escaped on `{}`: {} not refuted",
                mutation.label(),
                sc.name,
                property.label()
            )
        });
        assert!(
            !ce.schedule.is_empty(),
            "counterexample for {} has no schedule",
            property.label()
        );
        let narrated = trace::render_counterexample(ce);
        // The narrated schedule names concrete steps and engine events.
        assert!(narrated.contains("(r"), "{narrated}");
        assert!(narrated.contains("request"), "{narrated}");
    }
}

/// A determinism refutation carries *two* schedules: both complete, with
/// observably different reports.
#[test]
fn determinism_counterexample_shows_both_interleavings() {
    let result = explore::explore(&scenario::quarantine(), Mutation::LateQuarantine);
    let ce = result
        .counterexample(Property::Determinism)
        .expect("late quarantine must make the admission race observable");
    assert!(
        ce.alt_schedule.is_some(),
        "determinism counterexample needs a second witness schedule"
    );
    let narrated = trace::render_counterexample(ce);
    assert!(narrated.contains("versus the interleaving"), "{narrated}");
}

/// Dropping the doomed request's `release` leaks bytes on the terminal
/// path *and* deadlocks a same-device follower — both surfaced.
#[test]
fn drop_release_leaks_and_deadlocks() {
    let leak = explore::explore(&scenario::doomed(), Mutation::DropRelease);
    let ce = leak
        .counterexample(Property::LeakFreedom)
        .expect("leaked reservation not caught");
    assert!(ce.detail.contains("never returns to zero"), "{}", ce.detail);
    let dead = explore::explore(&scenario::doomed_follower(), Mutation::DropRelease);
    let ce = dead
        .counterexample(Property::AdmissionLiveness)
        .expect("admission deadlock not caught");
    assert!(ce.detail.contains("deadlock"), "{}", ce.detail);
}

/// Dropping a faulted chunk's `release` leaks its pending reservation on
/// the terminal path *and* deadlocks a same-device follower — both caught,
/// with the counterexample pinned to a concrete chunk step. The faithful
/// protocol proves leak-freedom on the same scenarios (chunk bytes cycle
/// reserve → commit/release on every interleaving).
#[test]
fn drop_chunk_release_leaks_and_deadlocks() {
    let leak = explore::explore(&scenario::ooc(), Mutation::DropChunkRelease);
    let ce = leak
        .counterexample(Property::LeakFreedom)
        .expect("leaked chunk reservation not caught");
    assert!(ce.detail.contains("never returns to zero"), "{}", ce.detail);
    assert!(
        ce.schedule.iter().any(|s| s.label.starts_with("chunk(")),
        "counterexample never streams a chunk: {:?}",
        ce.schedule.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
    let dead = explore::explore(&scenario::ooc_follower(), Mutation::DropChunkRelease);
    let ce = dead
        .counterexample(Property::AdmissionLiveness)
        .expect("admission deadlock behind leaked chunk not caught");
    assert!(ce.detail.contains("deadlock"), "{}", ce.detail);
}

/// Dropping the shed request's `release` leaks its pending reservation on
/// the terminal path *and* deadlocks a same-device follower — both caught
/// with the counterexample pinned to a concrete shed step. The faithful
/// protocol proves everything on the same scenarios (a shed request's
/// bytes cycle reserve → release on every interleaving).
#[test]
fn drop_shed_release_leaks_and_deadlocks() {
    let leak = explore::explore(&scenario::overload(), Mutation::DropShedRelease);
    let ce = leak
        .counterexample(Property::LeakFreedom)
        .expect("leaked shed reservation not caught");
    assert!(ce.detail.contains("never returns to zero"), "{}", ce.detail);
    assert!(
        ce.schedule.iter().any(|s| s.label.starts_with("shed(")),
        "counterexample never sheds: {:?}",
        ce.schedule.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
    let dead = explore::explore(&scenario::overload_follower(), Mutation::DropShedRelease);
    let ce = dead
        .counterexample(Property::AdmissionLiveness)
        .expect("admission deadlock behind leaked shed not caught");
    assert!(ce.detail.contains("deadlock"), "{}", ce.detail);
}

/// The model narrates what it does: the concatenated events of every
/// counterexample of a dropped release — on the leak scenario and on the
/// follower scenario of each of the three release mutations — fail the
/// replay automata's reservation balance, while every terminal schedule of
/// the faithful protocol on the same scenarios balances. A model that
/// dropped a release decision but still narrated its `Release` event would
/// pass its own leak check and fail here.
#[test]
fn dropped_release_narrations_fail_reservation_balance() {
    let events = |schedule: &[modelcheck::Step]| -> Vec<ProtocolEvent> {
        schedule.iter().flat_map(|s| s.events.clone()).collect()
    };
    let unbalanced = |log: &[ProtocolEvent]| {
        modelcheck::replay::replay(log)
            .iter()
            .any(|v| v.contains("reservation"))
    };
    let mut pairs = 0;
    for (mutation, sc, _) in scenario::mutation_suite() {
        if !matches!(
            mutation,
            Mutation::DropRelease | Mutation::DropChunkRelease | Mutation::DropShedRelease
        ) {
            continue;
        }
        pairs += 1;
        let mutated = explore::explore(&sc, mutation);
        assert!(
            !mutated.violations.is_empty(),
            "{} escaped",
            mutation.label()
        );
        for ce in &mutated.violations {
            assert!(
                unbalanced(&events(&ce.schedule)),
                "{} on `{}`: the {} counterexample's narration balances its reservations",
                mutation.label(),
                sc.name,
                ce.property.label()
            );
        }
        let faithful = explore::explore(&sc, Mutation::None);
        for schedule in faithful.fingerprints.values() {
            assert!(
                !unbalanced(&events(schedule)),
                "faithful schedule on `{}` fails reservation balance",
                sc.name
            );
        }
    }
    assert_eq!(pairs, 6, "three release mutations, each on two scenarios");
}

/// A skipped scrub in the chunk loop lets a mid-pipeline fault's taint
/// survive into the next chunk's kernel launch.
#[test]
fn skip_scrub_poisons_the_next_chunk() {
    let result = explore::explore(&scenario::ooc(), Mutation::SkipScrub);
    let ce = result
        .counterexample(Property::ScrubBeforeReuse)
        .expect("tainted chunk launch not caught");
    assert!(ce.detail.contains("chunk"), "{}", ce.detail);
}

/// The stuck-defer mutation livelocks: the checker pins the exact action
/// that repeats forever.
#[test]
fn stuck_defer_is_a_livelock_not_a_deadlock() {
    let result = explore::explore(&scenario::pressure(), Mutation::StuckDefer);
    let ce = result
        .counterexample(Property::AdmissionLiveness)
        .expect("stuck defer not caught");
    assert!(ce.detail.contains("livelock"), "{}", ce.detail);
}

/// Model-to-code tie: a real engine run under chaos fault injection,
/// replayed through the same property automata, is clean.
#[test]
fn real_engine_log_replays_cleanly() {
    let workload = serve::workload::synthetic(60, 2017);
    let config = serve::ServeConfig {
        devices: 2,
        verify: true,
        fault_injection: Some(gpu_sim::FaultConfig::chaos(2024, 0.02)),
        ..serve::ServeConfig::default()
    };
    let mut engine = serve::ServeEngine::new(config);
    engine.enable_protocol_log();
    let report = engine.run(&workload);
    assert!(report.fault_stats.injected() > 0, "chaos injected nothing");
    let log = engine.take_protocol_log();
    assert!(!log.is_empty(), "protocol log is empty");
    let violations = modelcheck::replay::replay(&log);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Chunk-granular tie: a real engine forced out-of-core (capacity below
/// the format) under chaos faults emits per-chunk `ReservePending`/`Commit`
/// cycles — and the same reservation-balance, scrub and deferral automata
/// replay that log cleanly.
#[test]
fn chunked_engine_log_replays_cleanly() {
    let workload = serve::Workload::parse(
        "tensor big nell2 3000 7\n\
         request big mttkrp 0 8 0.0 11\n\
         request big mttkrp 0 8 5.0 12\n",
    )
    .expect("valid workload");
    let mut engine = ooc_engine(gpu_sim::FaultConfig::chaos(2024, 0.05));
    let report = engine.run(&workload);
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert_eq!(report.verify_failures, 0);
    let log = engine.take_protocol_log();
    let reserves = log
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::ReservePending { .. }))
        .count();
    assert!(
        reserves > report.requests.len() + 1,
        "expected chunk-granular reservations, saw only {reserves}"
    );
    let violations = modelcheck::replay::replay(&log);
    assert!(violations.is_empty(), "{violations:?}");
}

/// A chunk out of retries falls to the host rung: with every kernel launch
/// failing, the first chunk exhausts its ladder while holding its one
/// reservation, hands it back, and the request is served on the host —
/// verified, with the pool drained and the log replaying cleanly.
#[test]
fn exhausted_chunk_falls_to_the_host_rung() {
    let faults = gpu_sim::FaultConfig {
        launch_failure_rate: 1.0,
        ..gpu_sim::FaultConfig::quiet(3)
    };
    let mut engine = ooc_engine(faults);
    let workload =
        serve::Workload::parse("tensor big nell2 3000 7\nrequest big mttkrp 0 8 0.0 11\n")
            .expect("valid workload");
    let report = engine.run(&workload);
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert_eq!(report.requests.len(), 1);
    let served = &report.requests[0];
    assert_eq!(served.tier, ExecTier::Cpu);
    assert!(served.chunks.is_empty(), "the host rung streams no chunks");
    assert_eq!(report.verify_failures, 0);
    assert_eq!(engine.pool(0).reserved_bytes(), 0, "reservations leaked");
    let log = engine.take_protocol_log();
    let violations = modelcheck::replay::replay(&log);
    assert!(violations.is_empty(), "{violations:?}");
    let max_retries = engine.config().fault_tolerance.max_retries;
    assert_eq!(exhausted_chunk(&log, 0), exhausted_chunk_order(max_retries));
}

/// The faithful model narrates its exhausted `ooc` chunk as the engine
/// does: one reservation held across every attempt, released before the
/// host rung.
#[test]
fn model_narrates_the_exhausted_chunk_as_the_engine() {
    let sc = scenario::ooc();
    let faithful = explore::explore(&sc, Mutation::None);
    assert_eq!(faithful.fingerprints.len(), 1);
    for schedule in faithful.fingerprints.values() {
        let log: Vec<ProtocolEvent> = schedule.iter().flat_map(|s| s.events.clone()).collect();
        assert_eq!(
            exhausted_chunk(&log, 0),
            exhausted_chunk_order(sc.max_retries as usize)
        );
    }
}

/// The replay automata themselves catch tampered logs: deleting a commit
/// (leak) or an attempt's scrub (taint) from a real log must be flagged.
#[test]
fn replay_flags_tampered_logs() {
    let workload = serve::workload::synthetic(40, 7);
    let config = serve::ServeConfig {
        devices: 2,
        verify: true,
        fault_injection: Some(gpu_sim::FaultConfig::chaos(11, 0.05)),
        ..serve::ServeConfig::default()
    };
    let mut engine = serve::ServeEngine::new(config);
    engine.enable_protocol_log();
    engine.run(&workload);
    let log = engine.take_protocol_log();

    let commit_at = log
        .iter()
        .position(|e| matches!(e, ProtocolEvent::Commit { .. }))
        .expect("log has a commit");
    let mut dropped_commit = log.clone();
    dropped_commit.remove(commit_at);
    assert!(
        !modelcheck::replay::replay(&dropped_commit).is_empty(),
        "dropped commit not flagged"
    );

    // The first scrub that closes an attempt: the factor upload's scrubs
    // come unannounced, with no attempt for them to clean up after.
    let scrub_at = log
        .windows(2)
        .position(|pair| {
            matches!(pair[0], ProtocolEvent::AttemptStart { .. })
                && matches!(pair[1], ProtocolEvent::Scrub { .. })
        })
        .expect("log has an attempt's scrub")
        + 1;
    let mut dropped_scrub = log.clone();
    dropped_scrub.remove(scrub_at);
    assert!(
        !modelcheck::replay::replay(&dropped_scrub).is_empty(),
        "dropped scrub not flagged"
    );
}
