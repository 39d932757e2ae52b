//! Property tests for the serving layer's accounting protocols — the same
//! invariants the `modelcheck` crate proves by exhaustion on small
//! scenarios, here sampled across large random instances.
//!
//! * [`PoolLedger`]: arbitrary valid `reserve_pending` / `commit` /
//!   `release` / retire / evict sequences conserve bytes exactly against an
//!   independent shadow model, and `earliest_release` is always the true
//!   minimum over committed reservations.
//! * [`Scheduler`]: `place_on_device` charges its dead time to the
//!   makespan but never to busy credit, and per-stream utilization stays
//!   within [0, 1] under randomized delayed placements.
//! * [`serve::ServeEngine`]: request conservation — across arbitrary
//!   open-loop load, deadlines, chaos fault rates and quarantine
//!   thresholds, every submitted request reaches exactly one terminal
//!   state (completed, shed, or rejected) and every device pool returns
//!   to zero reserved bytes.

use fcoo::TensorOp;
use proptest::prelude::*;
use serve::{PlanKey, PoolLedger, Scheduler};

fn key_for(i: u64) -> PlanKey {
    PlanKey::new(0xF0C0_0000 + i, TensorOp::SpMttkrp { mode: 0 }, 8)
}

/// Shadow of one live reservation: bytes held and the committed finish
/// time, if any.
#[derive(Clone, Copy)]
struct Shadow {
    id: serve::ReservationId,
    bytes: usize,
    finish: Option<f64>,
}

fn check_against_shadow(ledger: &PoolLedger, shadow: &[Shadow]) -> Result<(), TestCaseError> {
    let expect_bytes: usize = shadow.iter().map(|s| s.bytes).sum();
    prop_assert_eq!(
        ledger.reserved_bytes(),
        expect_bytes,
        "reserved bytes diverged from the shadow model"
    );
    let expect_pending = shadow.iter().filter(|s| s.finish.is_none()).count();
    prop_assert_eq!(ledger.pending_reservations(), expect_pending);
    let expect_earliest = shadow
        .iter()
        .filter_map(|s| s.finish)
        .min_by(f64::total_cmp);
    prop_assert_eq!(
        ledger.earliest_release(),
        expect_earliest,
        "earliest_release is not the min over committed reservations"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte conservation: after every operation of a random valid protocol
    /// sequence, the ledger's reserved bytes equal the shadow model's sum,
    /// `earliest_release` equals the true minimum committed finish time,
    /// and draining every reservation returns the ledger to exactly zero
    /// bytes and zero pins.
    #[test]
    fn ledger_conserves_bytes_exactly(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000, 0u64..1_000_000), 1..120),
        capacity in 4096usize..(1 << 20),
    ) {
        let mut ledger = PoolLedger::new(capacity);
        let mut shadow: Vec<Shadow> = Vec::new();
        for (op, a, b) in ops {
            match op {
                0 | 1 => {
                    // Open a pending reservation (twice as likely: the other
                    // ops need live reservations to act on).
                    let bytes = (b % 4096) as usize;
                    let id = ledger.reserve_pending(key_for(a % 4), bytes);
                    shadow.push(Shadow { id, bytes, finish: None });
                }
                2 => {
                    // Commit a random live reservation.
                    if !shadow.is_empty() {
                        let idx = (a as usize) % shadow.len();
                        let finish = (b % 1000) as f64 + 1.0;
                        ledger.commit(shadow[idx].id, finish);
                        shadow[idx].finish = Some(finish);
                    }
                }
                3 => {
                    // Release a random live reservation (failure path).
                    if !shadow.is_empty() {
                        let idx = (a as usize) % shadow.len();
                        let gone = shadow.remove(idx);
                        ledger.release(gone.id);
                    }
                }
                4 => {
                    // Retire everything finished by a random now.
                    let now = (b % 1200) as f64;
                    ledger.retire(now);
                    shadow.retain(|s| !matches!(s.finish, Some(f) if f <= now));
                }
                _ => {
                    // Cache a format and shed unpinned ones: residency must
                    // never perturb reservation accounting.
                    ledger.record_upload(key_for(a % 4), (b % 8192) as usize);
                    if a % 3 == 0 {
                        ledger.evict_all_unpinned();
                    }
                }
            }
            check_against_shadow(&ledger, &shadow)?;
            prop_assert!(ledger.total_pins() <= shadow.len());
        }
        // Drain: release every live reservation, then nothing may linger.
        for s in shadow.drain(..) {
            ledger.release(s.id);
        }
        ledger.retire(f64::MAX);
        prop_assert_eq!(ledger.reserved_bytes(), 0);
        prop_assert_eq!(ledger.pending_reservations(), 0);
        prop_assert_eq!(ledger.total_pins(), 0);
        prop_assert_eq!(ledger.earliest_release(), None);
    }

    /// Delayed placement accounting: the dead span always lands in the
    /// makespan (`finish = start + dead + duration`, bit-exact), busy
    /// credit accrues only for real work, and no stream's utilization ever
    /// exceeds 1.
    #[test]
    fn delayed_placements_charge_makespan_not_busy(
        jobs in proptest::collection::vec(
            (0.0f64..500.0, 0.0f64..200.0, 1.0f64..100.0), 1..40),
        streams in 1usize..4,
    ) {
        let mut sched = Scheduler::new(1, streams);
        let mut total_work = 0.0f64;
        for (ready, dead, dur) in jobs {
            let p = sched.place_on_device(0, ready, dead, dur);
            prop_assert!(
                (p.finish_us - (p.start_us + dead + dur)).abs() <= 1e-9 * p.finish_us.max(1.0),
                "dead time must be charged to the span: start {} dead {} dur {} finish {}",
                p.start_us, dead, dur, p.finish_us
            );
            total_work += dur;
        }
        let makespan = sched.makespan_us();
        let utils = &sched.utilizations()[0];
        let mut total_busy = 0.0f64;
        for &u in utils {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization {u} out of range");
            total_busy += u * makespan;
        }
        // Busy credit is exactly the real work: none of the dead time leaked
        // into utilization.
        prop_assert!(
            (total_busy - total_work).abs() <= 1e-6 * total_work.max(1.0),
            "busy {total_busy} != submitted work {total_work}"
        );
    }
}

proptest! {
    // Each case runs a real engine over a small workload; keep the count
    // modest so the suite stays fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Request conservation under overload, deadlines, faults and
    /// quarantines: every request reaches exactly one terminal state —
    /// completed, shed, or rejected — and every pool drains to zero
    /// reserved bytes.
    #[test]
    fn every_request_reaches_exactly_one_terminal_state(
        requests in 8usize..21,
        seed in 0u64..10_000,
        mean_gap_us in 5.0f64..300.0,
        deadline_us in 100.0f64..20_000.0,
        devices in 1usize..4,
        fault_sel in 0u8..3,
        quarantine_threshold in 1u64..6,
    ) {
        let fault = match fault_sel {
            0 => None,
            1 => Some(0.02f64),
            _ => Some(0.08f64),
        };
        let workload = serve::open_loop(requests, seed, mean_gap_us, deadline_us);
        let config = serve::ServeConfig {
            devices,
            fault_injection: fault.map(|rate| gpu_sim::FaultConfig::chaos(seed, rate)),
            fault_tolerance: serve::FaultTolerance {
                quarantine_threshold,
                ..serve::FaultTolerance::default()
            },
            ..serve::ServeConfig::default()
        };
        let mut engine = serve::ServeEngine::new(config);
        let report = engine.run(&workload);
        // Exactly-once terminality: the three outcome sets partition the
        // submitted indices.
        let mut seen = std::collections::BTreeSet::new();
        for r in &report.requests {
            prop_assert!(seen.insert(r.index), "request {} completed twice", r.index);
        }
        for r in &report.rejections {
            prop_assert!(seen.insert(r.index), "request {} double-terminal", r.index);
        }
        for s in &report.sheds {
            prop_assert!(seen.insert(s.index), "request {} double-terminal", s.index);
        }
        prop_assert_eq!(
            seen.len(),
            workload.requests.len(),
            "{} served + {} rejected + {} shed != {} submitted",
            report.requests.len(),
            report.rejections.len(),
            report.sheds.len(),
            workload.requests.len()
        );
        prop_assert_eq!(report.overload.shed as usize, report.sheds.len());
        prop_assert_eq!(report.overload.deadlined as usize, workload.requests.len());
        // Leak freedom: every device pool is back at zero reserved bytes.
        for d in 0..devices {
            prop_assert_eq!(
                engine.pool(d).reserved_bytes(),
                0,
                "device {} leaked reservations",
                d
            );
        }
    }
}

/// A deadlined open-loop trace over hypersparse tensors (nell1, delicious
/// at 1.5k non-zeros), whose factors the byte-count rule packs. Every
/// request gets its own factor seed, so every admitted request executes.
fn hypersparse_workload(
    requests: usize,
    seed: u64,
    mean_gap_us: f64,
    deadline_us: f64,
) -> serve::Workload {
    use tensor_core::datasets::DatasetKind;
    let tensors = vec![
        serve::TensorSpec {
            id: "nell1".to_string(),
            kind: DatasetKind::Nell1,
            nnz: 1500,
            seed,
        },
        serve::TensorSpec {
            id: "delicious".to_string(),
            kind: DatasetKind::Delicious,
            nnz: 1500,
            seed: seed ^ 0x5eed,
        },
    ];
    let mut state = seed;
    let mut draw = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut arrival = 0.0;
    let requests = (0..requests)
        .map(|i| {
            let tensor = &tensors[(draw() % 2) as usize];
            let mode = (draw() % 3) as usize;
            let op = if draw() % 3 == 0 {
                TensorOp::SpMttkrp { mode }
            } else {
                TensorOp::SpTtm { mode }
            };
            arrival += mean_gap_us * (0.5 + (draw() % 1000) as f64 / 1000.0);
            serve::Request {
                tensor_id: tensor.id.clone(),
                op: serve::ServeOp::Tensor(op),
                rank: 16,
                arrival_us: arrival,
                factor_seed: seed.wrapping_mul(1000).wrapping_add(i as u64),
                deadline_us: Some(deadline_us),
            }
        })
        .collect();
    serve::Workload { tensors, requests }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shed soundness with compact factors: the completion-time lower
    /// bound deadline-aware admission computes never exceeds the finish
    /// time an executed request realizes. The bound's transfer term is the
    /// bytes the request actually moves — the touched rows, and no mode-n
    /// factor for SpMTTKRP — so a shed request provably could not have met
    /// its deadline.
    #[test]
    fn shed_lower_bound_never_exceeds_a_realized_finish(
        requests in 6usize..16,
        seed in 0u64..10_000,
        mean_gap_us in 5.0f64..200.0,
        deadline_us in 40.0f64..4_000.0,
        devices in 1usize..3,
    ) {
        let workload = hypersparse_workload(requests, seed, mean_gap_us, deadline_us);
        let mut engine = serve::ServeEngine::new(serve::ServeConfig {
            devices,
            profile: true,
            ..serve::ServeConfig::default()
        });
        let report = engine.run(&workload);
        prop_assert!(report.rejections.is_empty(), "{:?}", report.rejections);
        let profile = report.profile.expect("profiling enabled");
        for p in profile.requests.iter().filter(|p| !p.batched) {
            let bound = p.lower_bound_us.expect("every request carries a deadline");
            prop_assert!(
                bound <= p.finish_us,
                "request {}: lower bound {} exceeds realized finish {}",
                p.index,
                bound,
                p.finish_us
            );
        }
        for shed in &report.sheds {
            prop_assert!(shed.estimate_us > shed.deadline_us);
        }
    }
}
