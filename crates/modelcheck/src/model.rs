//! The abstract transition system extracted from the serve engine.
//!
//! Shared state is built from the *real* serving types — one
//! [`serve::PoolLedger`] per device and the real [`serve::Scheduler`] — plus
//! a small amount of per-request and per-device control state. Each request
//! is a thread stepping through the engine's protocol:
//!
//! ```text
//! Idle ──Admit──▶ Admitted ──BeginExec──▶ Running ──Barrier──▶ Barriered
//!   │  (defer loops on Idle)  │ ▲     (retry / degrade)│           │
//!   │                        Shed (deadline provably   │         Place
//!   │                         │    unreachable)        │           │
//!   └──▶ Rejected ◀── genuine failure ◀────────────────┘           │
//!                 Done ◀──Accept── Committed ◀──Commit── Placed ◀──┘
//! ```
//!
//! A deadlined request whose certified execution-time floor already
//! exceeds its deadline is *shed* right after admission: its pending
//! reservation is released and it reaches the terminal `Shed` phase
//! without ever taking the execution lock.
//!
//! An out-of-core request loops on `Chunk` between `BeginExec` and
//! `Barrier`: each chunk takes its own pending reservation, runs a
//! per-attempt integrity barrier, and either commits at its D2H end or
//! releases and retries on a fault — the engine's chunk-granular
//! accounting, modeled step for step.
//!
//! The protocol rules mirror the engine's sequential dispatch: admission is
//! FIFO (one ticket, head-of-line), a request may only admit once its
//! target device has no *pending* (uncommitted) reservation, a device's
//! execution lock is held from attempt start through the integrity
//! barrier, and placement happens in arrival order. Everything else — which
//! request commits first, when outputs are read back, how device work
//! interleaves across devices — is left free, and the checker explores all
//! of it.
//!
//! Each [`ModelState::step`] returns the successor state, the
//! [`serve::ProtocolEvent`]s the engine would have logged for that
//! transition (so counterexamples read like real traces), and an optional
//! in-step property violation (scrub-before-reuse is checked at every
//! device read).

use crate::scenario::{Mutation, Scenario};
use crate::{Property, Violation};
use fcoo::TensorOp;
use serve::engine::{BACKOFF_BASE_US, BACKOFF_CAP_US};
use serve::ledger::splitmix;
use serve::{AdmitError, ExecTier, Placement, PlanKey, PoolLedger, ProtocolEvent, Scheduler};

/// Where a request is in its protocol lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not yet admitted (possibly deferred and retrying).
    Idle,
    /// Reservation held; waiting for the device execution lock.
    Admitted,
    /// Attempt in flight; holds the device execution lock.
    Running,
    /// Past the integrity barrier; waiting for its placement turn.
    Barriered,
    /// Placed on a stream; reservation not yet committed.
    Placed,
    /// Reservation committed; output not yet read back.
    Committed,
    /// Output read back — terminal.
    Done,
    /// Rejected (too large, or genuine failure) — terminal.
    Rejected,
    /// Shed: the certified completion-time lower bound provably missed the
    /// deadline, so the request never executed — terminal.
    Shed,
}

/// Per-request control state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqState {
    /// Lifecycle phase.
    pub phase: Phase,
    /// Simulated time the request became ready (arrival, pushed back by
    /// deferrals).
    pub ready_us: f64,
    /// True if admission ever deferred this request.
    pub deferred: bool,
    /// Device the request admitted on.
    pub device: Option<usize>,
    /// Live reservation handle, if any.
    pub reservation: Option<serve::ReservationId>,
    /// Current execution tier.
    pub tier: ExecTier,
    /// Global attempt counter (indexes the fault schedule).
    pub attempt: u32,
    /// Attempts burned at the current tier.
    pub tier_attempts: u32,
    /// Total corrupted attempts recovered from.
    pub retries: u32,
    /// Accumulated backoff charged as placement dead time.
    pub recovery_us: f64,
    /// Final placement, once placed.
    pub placement: Option<Placement>,
    /// True once the request no longer gates later placements (placed or
    /// rejected).
    pub place_done: bool,
    /// Streamed chunks completed so far (chunked requests only).
    pub chunks_done: u32,
    /// Attempts burned on the current chunk (resets when it commits).
    pub chunk_attempt: u32,
}

/// Per-device control state.
#[derive(Debug, Clone, PartialEq)]
pub struct DevState {
    /// Request currently holding the execution lock.
    pub lock: Option<usize>,
    /// True when an injected fault poisoned device memory and no scrub has
    /// run since.
    pub tainted: bool,
    /// Corrupted attempts attributed to this device.
    pub fault_count: u32,
    /// True once the device is quarantined.
    pub quarantined: bool,
    /// `LateQuarantine` mutation only: threshold crossed, application
    /// postponed to output readback.
    pub quarantine_due: bool,
}

/// One explored state of the transition system.
#[derive(Clone)]
pub struct ModelState {
    /// Real per-device accounting cores.
    pub pools: Vec<PoolLedger>,
    /// Real multi-stream scheduler.
    pub sched: Scheduler,
    /// Per-device control state.
    pub devs: Vec<DevState>,
    /// Per-request control state.
    pub reqs: Vec<ReqState>,
}

/// One host-visible transition: which request moves, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Request `r` attempts admission (may defer or reject).
    Admit(usize),
    /// Request `r` starts a kernel attempt (takes the device lock).
    BeginExec(usize),
    /// Request `r` is shed: its certified execution-time floor provably
    /// misses its deadline, so its reservation is released unrun.
    Shed(usize),
    /// Request `r` streams its next chunk: reserve → run → scrub →
    /// commit (or release + backoff on a faulted attempt).
    Chunk(usize),
    /// Request `r` runs the integrity barrier (scrub + fault policy).
    Barrier(usize),
    /// Request `r` is placed on a stream.
    Place(usize),
    /// Request `r` commits its reservation with its finish time.
    Commit(usize),
    /// Request `r`'s output is read back.
    Accept(usize),
}

impl Action {
    /// The request this action advances.
    pub fn request(&self) -> usize {
        match *self {
            Action::Admit(r)
            | Action::BeginExec(r)
            | Action::Shed(r)
            | Action::Chunk(r)
            | Action::Barrier(r)
            | Action::Place(r)
            | Action::Commit(r)
            | Action::Accept(r) => r,
        }
    }

    /// Short display label, e.g. `admit(r1)`.
    pub fn label(&self) -> String {
        let (name, r) = match *self {
            Action::Admit(r) => ("admit", r),
            Action::BeginExec(r) => ("exec", r),
            Action::Shed(r) => ("shed", r),
            Action::Chunk(r) => ("chunk", r),
            Action::Barrier(r) => ("barrier", r),
            Action::Place(r) => ("place", r),
            Action::Commit(r) => ("commit", r),
            Action::Accept(r) => ("accept", r),
        };
        format!("{name}(r{r})")
    }
}

/// Result of executing one action.
pub struct StepResult {
    /// Successor state.
    pub next: ModelState,
    /// Protocol events the engine would have logged for this transition.
    pub events: Vec<ProtocolEvent>,
    /// In-step property violation, if the action itself is unsafe.
    pub violation: Option<Violation>,
}

/// Plan key for a scenario-local `key_id`.
pub fn key_for(key_id: u64) -> PlanKey {
    PlanKey::new(0x4D43_0000 ^ key_id, TensorOp::SpMttkrp { mode: 0 }, 8)
}

/// Deterministic model of the engine's capped exponential backoff (the
/// model drops the jitter term: it only widens the span, never reorders).
fn backoff_us(tier_attempts: u32) -> f64 {
    (BACKOFF_BASE_US * f64::from(1u32 << tier_attempts.min(10))).min(BACKOFF_CAP_US)
}

fn next_tier(tier: ExecTier) -> ExecTier {
    match tier {
        ExecTier::Unified => ExecTier::TwoStep,
        ExecTier::TwoStep | ExecTier::Cpu => ExecTier::Cpu,
    }
}

impl ModelState {
    /// The initial state of a scenario.
    pub fn initial(sc: &Scenario) -> Self {
        ModelState {
            pools: (0..sc.devices)
                .map(|_| PoolLedger::new(sc.capacity_bytes))
                .collect(),
            sched: Scheduler::new(sc.devices, sc.streams_per_device),
            devs: (0..sc.devices)
                .map(|_| DevState {
                    lock: None,
                    tainted: false,
                    fault_count: 0,
                    quarantined: false,
                    quarantine_due: false,
                })
                .collect(),
            reqs: sc
                .requests
                .iter()
                .map(|spec| ReqState {
                    phase: Phase::Idle,
                    ready_us: spec.arrival_us,
                    deferred: false,
                    device: None,
                    reservation: None,
                    tier: ExecTier::Unified,
                    attempt: 0,
                    tier_attempts: 0,
                    retries: 0,
                    recovery_us: 0.0,
                    placement: None,
                    place_done: false,
                    chunks_done: 0,
                    chunk_attempt: 0,
                })
                .collect(),
        }
    }

    /// The engine's device affinity: the preferred device unless
    /// quarantined, else the first healthy device, else the preference.
    pub fn affinity(&self, preferred: usize) -> usize {
        if !self.devs[preferred].quarantined {
            return preferred;
        }
        for off in 1..self.devs.len() {
            let d = (preferred + off) % self.devs.len();
            if !self.devs[d].quarantined {
                return d;
            }
        }
        preferred
    }

    /// All requests in a terminal phase?
    pub fn terminal(&self) -> bool {
        self.reqs
            .iter()
            .all(|r| matches!(r.phase, Phase::Done | Phase::Rejected | Phase::Shed))
    }

    /// The enabled actions: at most one per request, by protocol phase.
    pub fn enabled(&self, sc: &Scenario) -> Vec<Action> {
        let first_idle = self.reqs.iter().position(|r| r.phase == Phase::Idle);
        let mut out = Vec::new();
        for (r, req) in self.reqs.iter().enumerate() {
            match req.phase {
                Phase::Idle => {
                    // FIFO admission ticket: only the head of the queue may
                    // try, and only once its target device has no pending
                    // (uncommitted) reservation — the engine admits after
                    // the previous job on the device settled its bytes.
                    if first_idle == Some(r) {
                        let d = self.affinity(sc.requests[r].preferred_device);
                        if self.pools[d].pending_reservations() == 0 {
                            out.push(Action::Admit(r));
                        }
                    }
                }
                Phase::Admitted => {
                    // The shed decision is static: a deadline below the
                    // certified execution-time floor (here exec_us itself)
                    // is provably unreachable, and the engine decides this
                    // deterministically at admission — before the lock.
                    let sheds = sc.requests[r]
                        .deadline_us
                        .is_some_and(|dl| dl < sc.requests[r].exec_us);
                    if sheds {
                        out.push(Action::Shed(r));
                    } else if let Some(d) = req.device {
                        if self.devs[d].lock.is_none() {
                            out.push(Action::BeginExec(r));
                        }
                    }
                }
                Phase::Running => {
                    // A chunked request streams every chunk (holding the
                    // execution lock) before its final integrity barrier.
                    if req.chunks_done < sc.requests[r].chunks {
                        out.push(Action::Chunk(r));
                    } else {
                        out.push(Action::Barrier(r));
                    }
                }
                Phase::Barriered => {
                    // Sequential dispatch: placement in arrival order.
                    if self.reqs[..r].iter().all(|p| p.place_done) {
                        out.push(Action::Place(r));
                    }
                }
                Phase::Placed => out.push(Action::Commit(r)),
                Phase::Committed => out.push(Action::Accept(r)),
                Phase::Done | Phase::Rejected | Phase::Shed => {}
            }
        }
        out
    }

    /// Executes `action`, returning the successor, its narration, and any
    /// in-step violation. Must only be called with an enabled action.
    pub fn step(&self, sc: &Scenario, mutation: Mutation, action: Action) -> StepResult {
        let mut s = self.clone();
        let mut events = Vec::new();
        let mut violation = None;
        let r = action.request();
        let spec = &sc.requests[r];
        match action {
            Action::Admit(r) => {
                let d = s.affinity(spec.preferred_device);
                let now = spec.arrival_us.max(s.reqs[r].ready_us);
                if mutation != Mutation::StuckDefer {
                    // The engine retires finished reservations before every
                    // admission decision; StuckDefer drops exactly this.
                    s.pools[d].retire(now);
                }
                let key = key_for(spec.key_id);
                let resident = s.pools[d].is_resident(key);
                let need = spec.transient_bytes + if resident { 0 } else { spec.format_bytes };
                let live = s.pools[d].cached_bytes();
                match s.pools[d].plan_admission(key, need, live) {
                    Ok(_victims) => {
                        if resident {
                            s.pools[d].record_hit(key);
                        } else {
                            s.pools[d].record_upload(key, spec.format_bytes);
                        }
                        let id = s.pools[d].reserve_pending(key, spec.transient_bytes);
                        let req = &mut s.reqs[r];
                        req.phase = Phase::Admitted;
                        req.device = Some(d);
                        req.reservation = Some(id);
                        req.ready_us = now;
                        events.push(ProtocolEvent::AdmitOk {
                            request: r as u64,
                            device: d,
                            uploaded: !resident,
                        });
                        events.push(ProtocolEvent::ReservePending {
                            request: r as u64,
                            device: d,
                            bytes: spec.transient_bytes,
                        });
                    }
                    Err(AdmitError::Defer { until_us }) => {
                        let req = &mut s.reqs[r];
                        req.deferred = true;
                        req.ready_us = req.ready_us.max(until_us);
                        events.push(ProtocolEvent::AdmitDefer {
                            request: r as u64,
                            device: d,
                            until_us,
                        });
                    }
                    Err(AdmitError::TooLarge { working_set, .. }) => {
                        let req = &mut s.reqs[r];
                        req.phase = Phase::Rejected;
                        req.place_done = true;
                        events.push(ProtocolEvent::AdmitReject {
                            request: r as u64,
                            device: d,
                            working_set,
                        });
                    }
                }
            }
            Action::Shed(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                // The shed request's bytes must come back before anything
                // else admits on the device; DropShedRelease leaks them.
                if mutation != Mutation::DropShedRelease {
                    if let Some(id) = s.reqs[r].reservation.take() {
                        s.pools[d].release(id);
                        events.push(ProtocolEvent::Release {
                            request: r as u64,
                            device: d,
                        });
                    }
                }
                events.push(ProtocolEvent::Shed {
                    request: r as u64,
                    device: d,
                    estimate_us: s.reqs[r].ready_us + spec.exec_us,
                    deadline_us: spec.arrival_us + spec.deadline_us.unwrap_or(0.0),
                });
                s.reqs[r].phase = Phase::Shed;
                s.reqs[r].place_done = true;
            }
            Action::BeginExec(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                if s.reqs[r].tier != ExecTier::Cpu && s.devs[d].tainted {
                    violation = Some(Violation {
                        property: Property::ScrubBeforeReuse,
                        detail: format!(
                            "request {r} launches a device kernel on device {d} while its \
                             memory is still poisoned by an unscrubbed fault"
                        ),
                    });
                }
                s.devs[d].lock = Some(r);
                let req = &mut s.reqs[r];
                events.push(ProtocolEvent::AttemptStart {
                    request: r as u64,
                    device: d,
                    attempt: req.attempt,
                    tier: req.tier,
                });
                // Fault injection: device tiers only, by global attempt.
                if req.tier != ExecTier::Cpu && spec.fault_attempts.contains(&req.attempt) {
                    s.devs[d].tainted = true;
                }
                s.reqs[r].phase = Phase::Running;
            }
            Action::Chunk(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                // Chunk-granular pending reservation: the streamed slice's
                // bytes are held only while this chunk is in flight.
                let id = s.pools[d].reserve_pending(key_for(spec.key_id), spec.chunk_bytes);
                events.push(ProtocolEvent::ReservePending {
                    request: r as u64,
                    device: d,
                    bytes: spec.chunk_bytes,
                });
                if s.reqs[r].tier != ExecTier::Cpu && s.devs[d].tainted {
                    violation = Some(Violation {
                        property: Property::ScrubBeforeReuse,
                        detail: format!(
                            "request {r} launches chunk {} on device {d} while its \
                             memory is still poisoned by an unscrubbed fault",
                            s.reqs[r].chunks_done
                        ),
                    });
                }
                events.push(ProtocolEvent::AttemptStart {
                    request: r as u64,
                    device: d,
                    attempt: s.reqs[r].attempt,
                    tier: s.reqs[r].tier,
                });
                // Chunk fault injection: first attempt of a scheduled
                // chunk, device tiers only.
                if s.reqs[r].tier != ExecTier::Cpu
                    && s.reqs[r].chunk_attempt == 0
                    && spec.chunk_fault_chunks.contains(&s.reqs[r].chunks_done)
                {
                    s.devs[d].tainted = true;
                }
                // Per-attempt integrity barrier, exactly as in the engine's
                // inner chunk loop.
                let corrupted = if mutation == Mutation::SkipScrub {
                    false
                } else {
                    let saw = s.devs[d].tainted;
                    s.devs[d].tainted = false;
                    saw
                };
                events.push(ProtocolEvent::Scrub {
                    request: r as u64,
                    device: d,
                    faults: usize::from(corrupted),
                    corrupted,
                });
                if corrupted {
                    s.devs[d].fault_count += 1;
                    // The faulted chunk's bytes must come back before the
                    // retry; DropChunkRelease leaks them instead.
                    if mutation != Mutation::DropChunkRelease {
                        s.pools[d].release(id);
                        events.push(ProtocolEvent::Release {
                            request: r as u64,
                            device: d,
                        });
                    }
                    let req = &mut s.reqs[r];
                    let pause = backoff_us(req.chunk_attempt);
                    req.recovery_us += pause;
                    req.retries += 1;
                    req.chunk_attempt += 1;
                    req.attempt += 1;
                    events.push(ProtocolEvent::Backoff {
                        request: r as u64,
                        backoff_us: pause,
                    });
                } else {
                    // Chunk-granular commit: this chunk's bytes release at
                    // its D2H end whether or not a later chunk faults.
                    let finish = s.reqs[r].ready_us;
                    s.pools[d].commit(id, finish);
                    events.push(ProtocolEvent::Commit {
                        request: r as u64,
                        device: d,
                        finish_us: finish,
                    });
                    let req = &mut s.reqs[r];
                    req.chunks_done += 1;
                    req.chunk_attempt = 0;
                    req.attempt += 1;
                }
            }
            Action::Barrier(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                let corrupted = if mutation == Mutation::SkipScrub {
                    // The mutated barrier neither scrubs nor looks: the
                    // taint silently survives and the attempt "passes".
                    false
                } else {
                    let saw = s.devs[d].tainted;
                    s.devs[d].tainted = false;
                    saw
                };
                events.push(ProtocolEvent::Scrub {
                    request: r as u64,
                    device: d,
                    faults: usize::from(corrupted),
                    corrupted,
                });
                s.devs[d].lock = None;
                if corrupted {
                    s.devs[d].fault_count += 1;
                    if mutation == Mutation::LateQuarantine {
                        if s.devs[d].fault_count >= sc.quarantine_threshold {
                            s.devs[d].quarantine_due = true;
                        }
                    } else if let Some(ev) = s.apply_quarantine(sc, d) {
                        events.push(ev);
                    }
                    let req = &mut s.reqs[r];
                    let pause = backoff_us(req.tier_attempts);
                    req.recovery_us += pause;
                    req.retries += 1;
                    req.tier_attempts += 1;
                    req.attempt += 1;
                    events.push(ProtocolEvent::Backoff {
                        request: r as u64,
                        backoff_us: pause,
                    });
                    if req.tier_attempts > sc.max_retries {
                        let from = req.tier;
                        req.tier = next_tier(from);
                        req.tier_attempts = 0;
                        events.push(ProtocolEvent::Degrade {
                            request: r as u64,
                            from,
                            to: req.tier,
                        });
                    }
                    s.reqs[r].phase = Phase::Admitted;
                } else if spec.doomed {
                    // Genuine (non-fault) failure: release the reservation
                    // and reject. DropRelease leaks it instead.
                    if mutation != Mutation::DropRelease {
                        if let Some(id) = s.reqs[r].reservation.take() {
                            s.pools[d].release(id);
                            events.push(ProtocolEvent::Release {
                                request: r as u64,
                                device: d,
                            });
                        }
                    }
                    s.reqs[r].phase = Phase::Rejected;
                    s.reqs[r].place_done = true;
                } else {
                    s.reqs[r].phase = Phase::Barriered;
                }
            }
            Action::Place(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                let req = &s.reqs[r];
                let p = if req.recovery_us > 0.0 {
                    s.sched
                        .place_on_device_delayed(d, req.ready_us, req.recovery_us, spec.exec_us)
                } else {
                    s.sched.place_on_device(d, req.ready_us, spec.exec_us)
                };
                events.push(ProtocolEvent::Place {
                    request: r as u64,
                    device: d,
                    stream: p.stream,
                    start_us: p.start_us,
                    finish_us: p.finish_us,
                });
                let req = &mut s.reqs[r];
                req.placement = Some(p);
                req.place_done = true;
                req.phase = Phase::Placed;
            }
            Action::Commit(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                let finish = s.reqs[r].placement.map_or(0.0, |p| p.finish_us);
                if let Some(id) = s.reqs[r].reservation {
                    s.pools[d].commit(id, finish);
                }
                events.push(ProtocolEvent::Commit {
                    request: r as u64,
                    device: d,
                    finish_us: finish,
                });
                s.reqs[r].phase = Phase::Committed;
            }
            Action::Accept(r) => {
                let d = s.reqs[r].device.unwrap_or(0);
                if s.reqs[r].tier != ExecTier::Cpu && s.devs[d].tainted {
                    violation = Some(Violation {
                        property: Property::ScrubBeforeReuse,
                        detail: format!(
                            "request {r}'s output is read back from device {d} while its \
                             memory is still poisoned by an unscrubbed fault"
                        ),
                    });
                }
                events.push(ProtocolEvent::Accept {
                    request: r as u64,
                    device: d,
                });
                if mutation == Mutation::LateQuarantine && s.devs[d].quarantine_due {
                    s.devs[d].quarantine_due = false;
                    if let Some(ev) = s.apply_quarantine(sc, d) {
                        events.push(ev);
                    }
                }
                s.reqs[r].phase = Phase::Done;
            }
        }
        StepResult {
            next: s,
            events,
            violation,
        }
    }

    /// The engine's quarantine policy: threshold crossed and at least one
    /// other healthy device remains.
    fn apply_quarantine(&mut self, sc: &Scenario, d: usize) -> Option<ProtocolEvent> {
        let healthy = self.devs.iter().filter(|dv| !dv.quarantined).count();
        if self.devs[d].fault_count >= sc.quarantine_threshold
            && !self.devs[d].quarantined
            && healthy > 1
        {
            self.devs[d].quarantined = true;
            return Some(ProtocolEvent::Quarantine { device: d });
        }
        None
    }

    /// Seeded digest of the complete state, for visited-set dedup. Two
    /// independent seeds give a 128-bit effective key.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = splitmix(seed);
        for p in &self.pools {
            h = splitmix(h ^ p.digest(seed));
        }
        h = splitmix(h ^ self.sched.digest(seed));
        for dv in &self.devs {
            h = splitmix(h ^ dv.lock.map_or(u64::MAX, |r| r as u64));
            h = splitmix(h ^ u64::from(dv.tainted));
            h = splitmix(h ^ u64::from(dv.fault_count));
            h = splitmix(h ^ u64::from(dv.quarantined));
            h = splitmix(h ^ u64::from(dv.quarantine_due));
        }
        for rq in &self.reqs {
            h = splitmix(h ^ rq.phase as u64);
            h = splitmix(h ^ rq.ready_us.to_bits());
            h = splitmix(h ^ u64::from(rq.deferred));
            h = splitmix(h ^ rq.device.map_or(u64::MAX, |d| d as u64));
            h = splitmix(h ^ u64::from(rq.tier as u8));
            h = splitmix(h ^ u64::from(rq.attempt));
            h = splitmix(h ^ u64::from(rq.tier_attempts));
            h = splitmix(h ^ u64::from(rq.retries));
            h = splitmix(h ^ rq.recovery_us.to_bits());
            h = splitmix(h ^ u64::from(rq.place_done));
            h = splitmix(h ^ u64::from(rq.chunks_done));
            h = splitmix(h ^ u64::from(rq.chunk_attempt));
            if let Some(p) = rq.placement {
                h = splitmix(h ^ p.stream as u64);
                h = splitmix(h ^ p.start_us.to_bits());
                h = splitmix(h ^ p.finish_us.to_bits());
            }
        }
        h
    }

    /// Digest of everything a client could observe in the final
    /// `ServeReport`: per-request outcome (device, stream, bit-exact
    /// start/finish, tier, retries, deferral), pool statistics, quarantine
    /// flags and the makespan. Determinism holds iff every maximal
    /// interleaving reaches the same fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix(0x51ED_0B5E_7F1A_6E01);
        for rq in &self.reqs {
            h = splitmix(h ^ u64::from(rq.phase == Phase::Rejected));
            h = splitmix(h ^ u64::from(rq.phase == Phase::Shed));
            h = splitmix(h ^ rq.device.map_or(u64::MAX, |d| d as u64));
            h = splitmix(h ^ u64::from(rq.deferred));
            h = splitmix(h ^ u64::from(rq.tier as u8));
            h = splitmix(h ^ u64::from(rq.retries));
            h = splitmix(h ^ rq.recovery_us.to_bits());
            if let Some(p) = rq.placement {
                h = splitmix(h ^ p.stream as u64);
                h = splitmix(h ^ p.start_us.to_bits());
                h = splitmix(h ^ p.finish_us.to_bits());
            }
        }
        for p in &self.pools {
            let st = p.stats();
            h = splitmix(h ^ st.uploads);
            h = splitmix(h ^ st.format_reuses);
            h = splitmix(h ^ st.evictions);
            h = splitmix(h ^ p.cached_bytes() as u64);
        }
        for dv in &self.devs {
            h = splitmix(h ^ u64::from(dv.quarantined));
            h = splitmix(h ^ u64::from(dv.fault_count));
        }
        h = splitmix(h ^ self.sched.makespan_us().to_bits());
        h
    }
}
