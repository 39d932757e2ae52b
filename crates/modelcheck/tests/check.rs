//! The checker's own acceptance suite: the faithful protocol proves all
//! four properties on every standard scenario (with the reduced and full
//! explorations agreeing), every seeded mutation is refuted with a
//! concrete counterexample schedule, and the property automata replay
//! cleanly over a real chaos-mode engine log.

use modelcheck::scenario::{self, Mutation};
use modelcheck::{check, explore, trace, Property};

/// The issue's acceptance scenario — 4 requests × 2 devices × 1 injected
/// fault — is explored exhaustively and all four properties are proved,
/// with nontrivial coverage counts reported.
#[test]
fn acceptance_scenario_proves_all_properties() {
    let report = check(&scenario::acceptance(), Mutation::None);
    assert!(report.all_proved(), "{}", report.render());
    assert!(report.reduction_consistent, "{}", report.render());
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
        assert!(
            report.reduction_consistent,
            "reduction diverged on `{}`:\n{}",
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
        let base = explore::explore(&sc, Mutation::None, false);
        assert!(
            !base.refutes(property),
            "faithful protocol already refutes {} on `{}`",
            property.label(),
            sc.name
        );
        let mutated = explore::explore(&sc, mutation, false);
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
    let result = explore::explore(&scenario::quarantine(), Mutation::LateQuarantine, false);
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

/// The ample-set reduction must agree with full exploration on verdicts
/// *and* terminal fingerprints for every scenario × mutation pair, and
/// must actually prune work somewhere.
#[test]
fn reduction_agrees_with_full_exploration_everywhere() {
    let mutations = [
        Mutation::None,
        Mutation::DropRelease,
        Mutation::SkipScrub,
        Mutation::LateQuarantine,
        Mutation::StuckDefer,
        Mutation::DropChunkRelease,
        Mutation::DropShedRelease,
    ];
    let mut pruned_somewhere = false;
    for sc in scenario::standard() {
        for mutation in mutations {
            let report = check(&sc, mutation);
            assert!(
                report.reduction_consistent,
                "reduction diverged on `{}` under {}:\n{}",
                sc.name,
                mutation.label(),
                report.render()
            );
            if report.reduced.transitions < report.full.transitions {
                pruned_somewhere = true;
            }
        }
    }
    assert!(
        pruned_somewhere,
        "ample-set reduction never pruned a single transition"
    );
}

/// Dropping the doomed request's `release` leaks bytes on the terminal
/// path *and* deadlocks a same-device follower — both surfaced.
#[test]
fn drop_release_leaks_and_deadlocks() {
    let leak = explore::explore(&scenario::doomed(), Mutation::DropRelease, false);
    let ce = leak
        .counterexample(Property::LeakFreedom)
        .expect("leaked reservation not caught");
    assert!(ce.detail.contains("never returns to zero"), "{}", ce.detail);
    let dead = explore::explore(&scenario::doomed_follower(), Mutation::DropRelease, false);
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
    let leak = explore::explore(&scenario::ooc(), Mutation::DropChunkRelease, false);
    let ce = leak
        .counterexample(Property::LeakFreedom)
        .expect("leaked chunk reservation not caught");
    assert!(ce.detail.contains("never returns to zero"), "{}", ce.detail);
    assert!(
        ce.schedule.iter().any(|s| s.label.starts_with("chunk(")),
        "counterexample never streams a chunk: {:?}",
        ce.schedule.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
    let dead = explore::explore(&scenario::ooc_follower(), Mutation::DropChunkRelease, false);
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
    let leak = explore::explore(&scenario::overload(), Mutation::DropShedRelease, false);
    let ce = leak
        .counterexample(Property::LeakFreedom)
        .expect("leaked shed reservation not caught");
    assert!(ce.detail.contains("never returns to zero"), "{}", ce.detail);
    assert!(
        ce.schedule.iter().any(|s| s.label.starts_with("shed(")),
        "counterexample never sheds: {:?}",
        ce.schedule.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
    let dead = explore::explore(
        &scenario::overload_follower(),
        Mutation::DropShedRelease,
        false,
    );
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
    let events = |schedule: &[modelcheck::Step]| -> Vec<serve::ProtocolEvent> {
        schedule.iter().flat_map(|s| s.events.clone()).collect()
    };
    let unbalanced = |log: &[serve::ProtocolEvent]| {
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
        let mutated = explore::explore(&sc, mutation, false);
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
        let faithful = explore::explore(&sc, Mutation::None, false);
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
    let result = explore::explore(&scenario::ooc(), Mutation::SkipScrub, false);
    let ce = result
        .counterexample(Property::ScrubBeforeReuse)
        .expect("tainted chunk launch not caught");
    assert!(ce.detail.contains("chunk"), "{}", ce.detail);
}

/// The stuck-defer mutation livelocks: the checker pins the exact action
/// that repeats forever.
#[test]
fn stuck_defer_is_a_livelock_not_a_deadlock() {
    let result = explore::explore(&scenario::pressure(), Mutation::StuckDefer, false);
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
    use fcoo::TensorOp;
    use tensor_core::datasets::{self, DatasetKind};
    let workload = serve::Workload::parse(
        "tensor big nell2 3000 7\n\
         request big mttkrp 0 8 0.0 11\n\
         request big mttkrp 0 8 5.0 12\n",
    )
    .expect("valid workload");
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 7);
    let transients: usize =
        tensor.shape().iter().map(|&s| s * 8 * 4).sum::<usize>() + tensor.shape()[0] * 8 * 4 + 1024;
    let min_format = serve::plan::SERVE_THREADLENS
        .iter()
        .map(|&tl| {
            fcoo::Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, tl)
                .storage()
                .total_bytes()
                + 64
        })
        .min()
        .expect("non-empty grid");
    let mut device_config = gpu_sim::DeviceConfig::titan_x();
    device_config.memory_capacity = transients + min_format / 2;
    let mut engine = serve::ServeEngine::new(serve::ServeConfig {
        device_config,
        verify: true,
        fault_injection: Some(gpu_sim::FaultConfig::chaos(2024, 0.05)),
        ..serve::ServeConfig::default()
    });
    engine.enable_protocol_log();
    let report = engine.run(&workload);
    assert!(report.rejections.is_empty(), "{:?}", report.rejections);
    assert_eq!(report.verify_failures, 0);
    let log = engine.take_protocol_log();
    let reserves = log
        .iter()
        .filter(|e| matches!(e, serve::ProtocolEvent::ReservePending { .. }))
        .count();
    assert!(
        reserves > report.requests.len() + 1,
        "expected chunk-granular reservations, saw only {reserves}"
    );
    let violations = modelcheck::replay::replay(&log);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The replay automata themselves catch tampered logs: deleting a commit
/// (leak) or a scrub (taint) from a real log must be flagged.
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
        .position(|e| matches!(e, serve::ProtocolEvent::Commit { .. }))
        .expect("log has a commit");
    let mut dropped_commit = log.clone();
    dropped_commit.remove(commit_at);
    assert!(
        !modelcheck::replay::replay(&dropped_commit).is_empty(),
        "dropped commit not flagged"
    );

    let scrub_at = log
        .iter()
        .position(|e| matches!(e, serve::ProtocolEvent::Scrub { .. }))
        .expect("log has a scrub");
    let mut dropped_scrub = log.clone();
    dropped_scrub.remove(scrub_at);
    assert!(
        !modelcheck::replay::replay(&dropped_scrub).is_empty(),
        "dropped scrub not flagged"
    );
}
