//! The serve engine's protocol as a transition system.
//!
//! Every rule comes from [`serve::protocol`], the module the engine runs,
//! over the real [`serve::PoolLedger`] and [`serve::Scheduler`], and each
//! request carries the engine's own per-request state, a [`Flight`]. This
//! module adds only what belongs to the checker: the phase machine and
//! [`ModelState::enabled`] (which request may move, so the explorer can try
//! every interleaving), a per-device execution lock and taint flag, each
//! scenario's fault schedule, and the six mutations — each drops or
//! postpones one decision a shared rule returned. Three abstractions
//! remain, documented where they live: faults are a taint flag, the shed
//! floor is static, and the chunk step is atomic (`docs/MODELCHECK.md`).
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
//! The engine's sequential dispatch fixes four orders: admission is FIFO
//! (one ticket, head-of-line), a request admits only once its device has
//! no pending reservation, a device's execution lock is held from attempt
//! start through the integrity barrier, and placement is in arrival order.
//! Everything else — which request commits first, when outputs are read
//! back, how devices interleave — is left free. Each [`ModelState::step`]
//! returns the successor, the [`serve::ProtocolEvent`]s the shared rules
//! narrated (so counterexamples read like real traces), and any in-step
//! violation (scrub-before-reuse is checked at every device read).

use crate::scenario::{Mutation, Scenario};
use crate::{Property, Violation};
use fcoo::TensorOp;
use serve::ledger::splitmix;
use serve::protocol::{self, Flight, Health, Ladder, Rung};
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

impl Phase {
    /// Done, rejected or shed.
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Rejected | Phase::Shed)
    }
}

/// Per-request control state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqState {
    /// Lifecycle phase.
    pub phase: Phase,
    /// The engine's per-request protocol state: device, ready time,
    /// deferral, open reservations, attempt number, retries and recovery
    /// time (the backoff charged as placement dead time).
    pub flight: Flight,
    /// The whole-attempt ladder: current tier and attempts discarded there.
    pub ladder: Ladder,
    /// The current chunk's ladder (chunked requests only).
    pub chunk_ladder: Ladder,
    /// Final placement, once placed.
    pub placement: Option<Placement>,
    /// True once the request no longer gates later placements (placed or
    /// rejected).
    pub place_done: bool,
    /// Streamed chunks completed so far (chunked requests only).
    pub chunks_done: u32,
}

impl ReqState {
    /// The device the request admitted on (none while it waits).
    pub fn device(&self) -> Option<usize> {
        (self.phase != Phase::Idle).then_some(self.flight.device)
    }
}

/// Per-device control state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DevState {
    /// Request currently holding the execution lock.
    pub lock: Option<usize>,
    /// True when an injected fault poisoned device memory and no scrub has
    /// run since.
    pub tainted: bool,
    /// `LateQuarantine` mutation only: the quarantine decision, postponed
    /// to output readback.
    pub quarantine_due: bool,
}

/// One explored state of the transition system.
#[derive(Clone)]
pub struct ModelState {
    /// Real per-device accounting cores.
    pub pools: Vec<PoolLedger>,
    /// Real multi-stream scheduler.
    pub sched: Scheduler,
    /// Per-device fault evidence and quarantine flags.
    pub health: Health,
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

/// A chunk's ladder: the unified kernel only.
const CHUNK_TIERS: &[ExecTier] = &[ExecTier::Unified];

/// The scrub of an integrity barrier: reports and clears the device's
/// taint. Under `SkipScrub` it neither scrubs nor looks — the taint
/// silently survives and the attempt "passes".
fn scrub(dev: &mut DevState, mutation: Mutation) -> bool {
    mutation != Mutation::SkipScrub && std::mem::take(&mut dev.tainted)
}

/// A device read (kernel launch or readback) while the device is still
/// tainted refutes scrub-before-reuse.
fn poisoned(tier: ExecTier, dev: &DevState, what: String) -> Option<Violation> {
    (tier != ExecTier::Cpu && dev.tainted).then(|| Violation {
        property: Property::ScrubBeforeReuse,
        detail: format!("{what} while its memory is still poisoned by an unscrubbed fault"),
    })
}

impl ModelState {
    /// The initial state of a scenario.
    pub fn initial(sc: &Scenario) -> Self {
        ModelState {
            pools: (0..sc.devices)
                .map(|_| PoolLedger::new(sc.capacity_bytes))
                .collect(),
            sched: Scheduler::new(sc.devices, sc.streams_per_device),
            health: Health::new(sc.devices),
            devs: vec![DevState::default(); sc.devices],
            reqs: sc
                .requests
                .iter()
                .enumerate()
                .map(|(r, spec)| ReqState {
                    phase: Phase::Idle,
                    flight: Flight::new(r, spec.preferred_device, spec.arrival_us),
                    // The engine's ladder for the scenario's op on a
                    // third-order tensor.
                    ladder: Ladder::new(protocol::tensor_tiers(key_for(spec.key_id).op(), 3)),
                    chunk_ladder: Ladder::new(CHUNK_TIERS),
                    placement: None,
                    place_done: false,
                    chunks_done: 0,
                })
                .collect(),
        }
    }

    /// All requests in a terminal phase?
    pub fn terminal(&self) -> bool {
        self.reqs.iter().all(|r| r.phase.is_terminal())
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
                        let d = self.health.affinity(sc.requests[r].preferred_device as u64);
                        if self.pools[d].pending_reservations() == 0 {
                            out.push(Action::Admit(r));
                        }
                    }
                }
                Phase::Admitted => {
                    // The shed decision is static: a deadline below the
                    // execution time is unreachable even on an empty queue
                    // (the engine's bound with nothing queued ahead), and
                    // the engine decides it at admission — before the lock.
                    let sheds = sc.requests[r]
                        .deadline_us
                        .is_some_and(|dl| dl < sc.requests[r].exec_us);
                    if sheds {
                        out.push(Action::Shed(r));
                    } else if self.devs[req.flight.device].lock.is_none() {
                        out.push(Action::BeginExec(r));
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
        let ModelState {
            pools,
            sched,
            health,
            devs,
            reqs,
        } = &mut s;
        let req = &mut reqs[r];
        let max_retries = sc.max_retries as usize;
        // The engine's fault policy after a corrupted attempt: attribute the
        // fault, then quarantine on the threshold. LateQuarantine postpones
        // the quarantine decision to output readback.
        let fault_policy = |health: &mut Health, devs: &mut [DevState], d, events: &mut Vec<_>| {
            health.faults[d] += 1;
            if health.quarantine_due(d, u64::from(sc.quarantine_threshold)) {
                if mutation == Mutation::LateQuarantine {
                    devs[d].quarantine_due = true;
                } else {
                    events.push(health.quarantine(d));
                }
            }
        };
        match action {
            Action::Admit(_) => {
                let d = health.affinity(spec.preferred_device as u64);
                req.flight.device = d;
                if mutation != Mutation::StuckDefer {
                    // The engine retires finished reservations before every
                    // admission decision; StuckDefer drops exactly this.
                    pools[d].retire(req.flight.ready_us);
                }
                let key = key_for(spec.key_id);
                let live = pools[d].cached_bytes();
                let (fb, tb) = (spec.format_bytes, spec.transient_bytes);
                match protocol::admit(&mut pools[d], key, fb, tb, live) {
                    Ok(admission) => {
                        // The model's upload is instantaneous and never fails.
                        if !admission.resident {
                            pools[d].record_upload(key, fb);
                        }
                        req.phase = Phase::Admitted;
                        events.push(req.flight.admitted(!admission.resident));
                        events.push(req.flight.reserve(&mut pools[d], key, tb));
                    }
                    Err(AdmitError::Defer { until_us }) => events.push(req.flight.defer(until_us)),
                    Err(AdmitError::TooLarge { working_set, .. }) => {
                        req.phase = Phase::Rejected;
                        req.place_done = true;
                        events.push(req.flight.rejected(working_set));
                    }
                }
            }
            Action::Shed(_) => {
                // The decision was static (see `enabled`); the bound from the
                // request's ready time narrates it.
                let deadline_us = spec.arrival_us + spec.deadline_us.unwrap_or(0.0);
                let floor = [spec.exec_us];
                let (estimate_us, _) =
                    protocol::shed_bound(req.flight.ready_us, &floor, deadline_us);
                let (held, shed) = req.flight.shed(estimate_us, deadline_us);
                // DropShedRelease leaks the shed request's bytes.
                if mutation != Mutation::DropShedRelease {
                    events.extend(req.flight.release(&mut pools[req.flight.device], held));
                }
                events.push(shed);
                req.phase = Phase::Shed;
                req.place_done = true;
            }
            Action::BeginExec(_) => {
                let (d, tier) = (req.flight.device, req.ladder.tier());
                let what = format!("request {r} launches a device kernel on device {d}");
                violation = poisoned(tier, &devs[d], what);
                devs[d].lock = Some(r);
                events.push(req.flight.attempt_start(tier));
                // Fault injection: device tiers only, by attempt number.
                if tier != ExecTier::Cpu && spec.fault_attempts.contains(&req.flight.attempt) {
                    devs[d].tainted = true;
                }
                req.phase = Phase::Running;
            }
            Action::Chunk(_) => {
                // The atomic chunk step: reserve, one attempt, scrub, then
                // commit or release before the retry — where the engine
                // holds a chunk's reservation across its retries. The
                // out-of-core host rung is not modeled.
                let (d, tier) = (req.flight.device, req.ladder.tier());
                let key = key_for(spec.key_id);
                events.push(req.flight.reserve(&mut pools[d], key, spec.chunk_bytes));
                let what = format!(
                    "request {r} launches chunk {} on device {d}",
                    req.chunks_done
                );
                violation = poisoned(tier, &devs[d], what);
                events.push(req.flight.attempt_start(tier));
                // Chunk fault injection: first attempt of a scheduled chunk,
                // device tiers only.
                if tier != ExecTier::Cpu
                    && req.chunk_ladder.discarded() == 0
                    && spec.chunk_fault_chunks.contains(&req.chunks_done)
                {
                    devs[d].tainted = true;
                }
                // Per-attempt integrity barrier, as in the engine's chunk
                // ladder.
                let corrupted = scrub(&mut devs[d], mutation);
                events.push(req.flight.scrub(usize::from(corrupted), corrupted));
                let Some(id) = req.flight.pending.pop() else {
                    unreachable!("the chunk reservation was just opened")
                };
                if corrupted {
                    fault_policy(health, devs, d, &mut events);
                    // The faulted chunk's bytes come back before the retry;
                    // DropChunkRelease leaks them instead.
                    if mutation != Mutation::DropChunkRelease {
                        events.extend(req.flight.release(&mut pools[d], vec![id]));
                    }
                    let retry = req.flight.retry(&mut req.chunk_ladder, max_retries);
                    events.push(retry.event);
                    assert!(
                        retry.rung == Rung::Same,
                        "the out-of-core host rung is not modeled"
                    );
                } else {
                    // Chunk-granular commit: this chunk's bytes release at
                    // its D2H end (at once: chunks take no simulated time)
                    // whether or not a later chunk faults.
                    events.push(req.flight.commit(&mut pools[d], id, req.flight.ready_us));
                    req.chunks_done += 1;
                    req.chunk_ladder = Ladder::new(CHUNK_TIERS);
                }
            }
            Action::Barrier(_) => {
                let (d, tier) = (req.flight.device, req.ladder.tier());
                let corrupted = scrub(&mut devs[d], mutation);
                events.push(req.flight.scrub(usize::from(corrupted), corrupted));
                devs[d].lock = None;
                if corrupted {
                    fault_policy(health, devs, d, &mut events);
                    let retry = req.flight.retry(&mut req.ladder, max_retries);
                    events.push(retry.event);
                    match retry.rung {
                        Rung::Same => {}
                        Rung::Degraded { from, to } => events.push(req.flight.degrade(from, to)),
                        Rung::Exhausted => unreachable!("the host tier never faults"),
                    }
                    req.phase = Phase::Admitted;
                } else if spec.doomed && tier != ExecTier::Cpu {
                    // Genuine (non-fault) failure: on the first rung the
                    // request releases what it holds and is rejected
                    // (DropRelease leaks it instead); on a later rung it
                    // falls to the last tier.
                    match req.ladder.fail() {
                        Some(to) => {
                            events.push(req.flight.degrade(tier, to));
                            req.phase = Phase::Admitted;
                        }
                        None => {
                            let held = std::mem::take(&mut req.flight.pending);
                            if mutation != Mutation::DropRelease {
                                events.extend(req.flight.release(&mut pools[d], held));
                            }
                            req.phase = Phase::Rejected;
                            req.place_done = true;
                        }
                    }
                } else {
                    req.phase = Phase::Barriered;
                }
            }
            Action::Place(_) => {
                let dead_us = req.flight.recovery_us;
                let p = req.flight.place(sched, dead_us, spec.exec_us);
                events.push(req.flight.placed(&p));
                req.placement = Some(p);
                req.place_done = true;
                req.phase = Phase::Placed;
            }
            Action::Commit(_) => {
                let finish = req.placement.map_or(0.0, |p| p.finish_us);
                for id in std::mem::take(&mut req.flight.pending) {
                    events.push(req.flight.commit(&mut pools[req.flight.device], id, finish));
                }
                req.phase = Phase::Committed;
            }
            Action::Accept(_) => {
                let d = req.flight.device;
                let what = format!("request {r}'s output is read back from device {d}");
                violation = poisoned(req.ladder.tier(), &devs[d], what);
                events.push(req.flight.accept());
                if std::mem::take(&mut devs[d].quarantine_due)
                    && health.quarantine_due(d, u64::from(sc.quarantine_threshold))
                {
                    events.push(health.quarantine(d));
                }
                req.phase = Phase::Done;
            }
        }
        StepResult {
            next: s,
            events,
            violation,
        }
    }

    /// Seeded digest of the complete state, for visited-set dedup. Two
    /// independent seeds give a 128-bit effective key.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = splitmix(seed);
        for p in &self.pools {
            h = splitmix(h ^ p.digest(seed));
        }
        h = splitmix(h ^ self.sched.digest(seed));
        for (d, dv) in self.devs.iter().enumerate() {
            h = splitmix(h ^ dv.lock.map_or(u64::MAX, |r| r as u64));
            h = splitmix(h ^ u64::from(dv.tainted));
            h = splitmix(h ^ self.health.faults[d]);
            h = splitmix(h ^ u64::from(self.health.quarantined[d]));
            h = splitmix(h ^ u64::from(dv.quarantine_due));
        }
        for rq in &self.reqs {
            let f = &rq.flight;
            h = splitmix(h ^ rq.phase as u64);
            h = splitmix(h ^ f.ready_us.to_bits());
            h = splitmix(h ^ u64::from(f.deferred));
            h = splitmix(h ^ rq.device().map_or(u64::MAX, |d| d as u64));
            h = splitmix(h ^ u64::from(rq.ladder.tier() as u8));
            h = splitmix(h ^ u64::from(f.attempt));
            h = splitmix(h ^ u64::from(rq.ladder.discarded()));
            h = splitmix(h ^ u64::from(f.retries));
            h = splitmix(h ^ f.recovery_us.to_bits());
            h = splitmix(h ^ u64::from(rq.place_done));
            h = splitmix(h ^ u64::from(rq.chunks_done));
            h = splitmix(h ^ u64::from(rq.chunk_ladder.discarded()));
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
            h = splitmix(h ^ rq.device().map_or(u64::MAX, |d| d as u64));
            h = splitmix(h ^ u64::from(rq.flight.deferred));
            h = splitmix(h ^ u64::from(rq.ladder.tier() as u8));
            h = splitmix(h ^ u64::from(rq.flight.retries));
            h = splitmix(h ^ rq.flight.recovery_us.to_bits());
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
        for d in 0..self.devs.len() {
            h = splitmix(h ^ u64::from(self.health.quarantined[d]));
            h = splitmix(h ^ self.health.faults[d]);
        }
        h = splitmix(h ^ self.sched.makespan_us().to_bits());
        h
    }
}
