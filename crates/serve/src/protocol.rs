//! The serving protocol's rules, each written once: admission ([`admit`])
//! and the defer step, the reservation lifecycle, the retry ladder
//! ([`Ladder`], [`Flight::retry`]), quarantine and affinity ([`Health`]),
//! the shed step ([`shed_bound`], [`Flight::shed`]) and placement with dead
//! time ([`Flight::place`]).
//!
//! Two callers run them: [`crate::engine::ServeEngine`] with real
//! execution, and the `modelcheck` crate over every host interleaving of
//! small scenarios. A rule advances one request's [`Flight`], one device's
//! [`PoolLedger`] or the devices' [`Health`], and returns its decision with
//! the [`ProtocolEvent`] that narrates it; the caller applies the decision.
//! So the checker proves the protocol the engine runs, and a seeded bug in
//! the checker is a caller dropping or postponing one decision.

use crate::events::ProtocolEvent;
use crate::ledger::{splitmix, AdmitError, PoolLedger, ReservationId};
use crate::metrics::ExecTier;
use crate::plan::PlanKey;
use crate::scheduler::{Placement, Scheduler};
use fcoo::TensorOp;

/// First retry backoff in µs; doubles per attempt up to `BACKOFF_CAP_US`.
const BACKOFF_BASE_US: f64 = 50.0;

/// Ceiling of the exponential retry backoff (µs).
const BACKOFF_CAP_US: f64 = 800.0;

/// Seed of the deterministic backoff jitter and redundancy sampling — same
/// workload + same fault seed ⇒ identical retry schedule.
const RETRY_SEED: u64 = 0x0BAD_F417;

/// Capped exponential backoff with deterministic jitter for retry
/// `attempt` of request `request`.
fn backoff_us(request: usize, attempt: u32) -> f64 {
    let capped = (BACKOFF_BASE_US * f64::powi(2.0, attempt.min(16) as i32)).min(BACKOFF_CAP_US);
    let h = splitmix(RETRY_SEED ^ (request as u64) ^ ((attempt as u64) << 32));
    // Jitter in [0.5, 1.0): half the schedule is deterministic floor.
    capped * (0.5 + 0.5 * (h >> 11) as f64 / (1u64 << 53) as f64)
}

/// Whether attempt `attempt` of request `request` is sampled for redundant
/// re-execution at `rate` (never at a rate of zero).
pub(crate) fn redundancy_draw(request: usize, attempt: u32, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let h = splitmix(
        RETRY_SEED
            .rotate_left(17)
            .wrapping_add(request as u64)
            .wrapping_add((attempt as u64) << 40),
    );
    (h >> 11) as f64 / ((1u64 << 53) as f64) < rate
}

/// What an admission decided.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The format was resident (a reuse); otherwise the caller uploads it
    /// and records the upload ([`PoolLedger::record_upload`]).
    pub resident: bool,
    /// Formats evicted to make room; the caller drops their uploads.
    pub evicted: Vec<PlanKey>,
}

/// The admission rule: `key`'s format (`format_bytes`, charged only when
/// not resident) plus `transient_bytes` must fit next to `live_bytes` of
/// allocations and the in-flight reservations, evicting LRU unpinned
/// formats as required. [`AdmitError::Defer`]: reservations pin the room;
/// [`AdmitError::TooLarge`]: the working set never fits.
pub fn admit(
    ledger: &mut PoolLedger,
    key: PlanKey,
    format_bytes: usize,
    transient_bytes: usize,
    live_bytes: usize,
) -> Result<Admission, AdmitError> {
    let working_set = format_bytes + transient_bytes;
    if working_set > ledger.capacity() {
        return Err(AdmitError::TooLarge {
            working_set,
            capacity: ledger.capacity(),
        });
    }
    let resident = ledger.is_resident(key);
    let need = transient_bytes + if resident { 0 } else { format_bytes };
    let evicted = ledger.plan_admission(key, need, live_bytes)?;
    if resident {
        ledger.record_hit(key);
    }
    Ok(Admission { resident, evicted })
}

/// A tensor op's execution ladder: unified → two-step → host for SpMTTKRP
/// on a third-order tensor, unified → host otherwise.
pub fn tensor_tiers(op: TensorOp, order: usize) -> &'static [ExecTier] {
    if matches!(op, TensorOp::SpMttkrp { .. }) && order == 3 {
        &[ExecTier::Unified, ExecTier::TwoStep, ExecTier::Cpu]
    } else {
        &[ExecTier::Unified, ExecTier::Cpu]
    }
}

/// A request's position on one attempt ladder: the tiers it may run at,
/// the current rung, and the attempts discarded there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    tiers: &'static [ExecTier],
    rung: usize,
    discarded: u32,
}

impl Ladder {
    /// A ladder over `tiers` (non-empty), on its first rung.
    pub fn new(tiers: &'static [ExecTier]) -> Self {
        Ladder {
            tiers,
            rung: 0,
            discarded: 0,
        }
    }

    /// The tier the next attempt runs at.
    pub fn tier(&self) -> ExecTier {
        self.tiers[self.rung]
    }

    /// Attempts discarded at the current tier.
    pub fn discarded(&self) -> u32 {
        self.discarded
    }

    /// The genuine-failure rule (a failure no retry fixes): on the first
    /// rung the request is rejected (`None`: the caller releases what it
    /// holds); on a later rung it falls to the last tier, returned.
    pub fn fail(&mut self) -> Option<ExecTier> {
        if self.rung == 0 {
            return None;
        }
        self.rung = self.tiers.len() - 1;
        self.discarded = 0;
        Some(self.tier())
    }
}

/// Where a discarded attempt leaves its ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rung {
    /// Retry at the same tier.
    Same,
    /// The tier ran out of retries; the ladder moved down to `to`.
    Degraded {
        /// The tier that kept failing.
        from: ExecTier,
        /// The tier the request retries at.
        to: ExecTier,
    },
    /// The last tier ran out of retries: the ladder accepts nothing.
    Exhausted,
}

/// The retry rule's decision for one discarded attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct Retry {
    /// Backoff charged before the next attempt.
    pub backoff_us: f64,
    /// The `Backoff` event.
    pub event: ProtocolEvent,
    /// Where the ladder stands now.
    pub rung: Rung,
}

/// Per-device fault evidence and the quarantine rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// Corrupting faults attributed to each device.
    pub faults: Vec<u64>,
    /// Devices removed from the rotation.
    pub quarantined: Vec<bool>,
}

impl Health {
    /// `devices` healthy devices with no faults.
    pub fn new(devices: usize) -> Self {
        Health {
            faults: vec![0; devices],
            quarantined: vec![false; devices],
        }
    }

    /// The devices still in the rotation, in index order.
    pub fn healthy(&self) -> Vec<usize> {
        (0..self.quarantined.len())
            .filter(|&d| !self.quarantined[d])
            .collect()
    }

    /// The quarantine rule: `device` leaves the rotation once its faults
    /// reach `threshold`, as long as another healthy device remains.
    pub fn quarantine_due(&self, device: usize, threshold: u64) -> bool {
        !self.quarantined[device] && self.faults[device] >= threshold && self.healthy().len() > 1
    }

    /// Applies a quarantine decision.
    pub fn quarantine(&mut self, device: usize) -> ProtocolEvent {
        self.quarantined[device] = true;
        ProtocolEvent::Quarantine { device }
    }

    /// The affinity rule: a plan digest prefers device `digest % devices`;
    /// when that device is quarantined it re-hashes across the healthy
    /// devices, and with none healthy it keeps its preference.
    pub fn affinity(&self, digest: u64) -> usize {
        let preferred = (digest % self.quarantined.len() as u64) as usize;
        if !self.quarantined[preferred] {
            return preferred;
        }
        let healthy = self.healthy();
        if healthy.is_empty() {
            preferred
        } else {
            healthy[(digest % healthy.len() as u64) as usize]
        }
    }
}

/// The shed rule: the certified completion-time lower bound is the queue
/// start plus `floor_us`, the costs the request cannot avoid. The real
/// placement can only start later and run longer, so a bound past
/// `deadline_us` proves the deadline unreachable. Returns (bound, shed).
pub fn shed_bound(queue_start_us: f64, floor_us: &[f64], deadline_us: f64) -> (f64, bool) {
    let estimate_us = floor_us.iter().fold(queue_start_us, |t, us| t + us);
    (estimate_us, estimate_us > deadline_us)
}

/// One request's progress through the protocol: the state every rule
/// reads or advances, from admission to the terminal record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flight {
    /// Request id (arrival index).
    pub request: usize,
    /// Device the request is admitted to (or tries to be).
    pub device: usize,
    /// Earliest time the request can start: its arrival, or the release
    /// that admission last deferred it to.
    pub ready_us: f64,
    /// True once admission deferred the request.
    pub deferred: bool,
    /// Reservations opened for the request and not yet committed or
    /// released.
    pub pending: Vec<ReservationId>,
    /// Number of the next attempt (all ladders of the request share it).
    pub attempt: u32,
    /// Attempts discarded and retried.
    pub retries: u32,
    /// Dead time of failed attempts, stalls, backoff and redundant
    /// re-executions.
    pub recovery_us: f64,
}

impl Flight {
    /// Request `request` arriving at `arrival_us`, bound for `device`.
    pub fn new(request: usize, device: usize, arrival_us: f64) -> Self {
        Flight {
            request,
            device,
            ready_us: arrival_us,
            ..Flight::default()
        }
    }

    fn id(&self) -> u64 {
        self.request as u64
    }

    /// The defer step: reservations pin the room admission needs until
    /// `until_us`; the request waits, and the caller retires the ledger at
    /// the new ready time before it tries again.
    pub fn defer(&mut self, until_us: f64) -> ProtocolEvent {
        self.deferred = true;
        self.ready_us = until_us.max(self.ready_us);
        ProtocolEvent::AdmitDefer {
            request: self.id(),
            device: self.device,
            until_us,
        }
    }

    /// Admission succeeded (`uploaded`: it paid the format upload).
    pub fn admitted(&self, uploaded: bool) -> ProtocolEvent {
        ProtocolEvent::AdmitOk {
            request: self.id(),
            device: self.device,
            uploaded,
        }
    }

    /// Admission rejected a working set that can never fit.
    pub fn rejected(&self, working_set: usize) -> ProtocolEvent {
        ProtocolEvent::AdmitReject {
            request: self.id(),
            device: self.device,
            working_set,
        }
    }

    /// Opens a pending reservation of `bytes` pinning `key`'s format; it
    /// stays in [`Flight::pending`] until committed or released.
    pub fn reserve(
        &mut self,
        ledger: &mut PoolLedger,
        key: PlanKey,
        bytes: usize,
    ) -> ProtocolEvent {
        self.pending.push(ledger.reserve_pending(key, bytes));
        ProtocolEvent::ReservePending {
            request: self.id(),
            device: self.device,
            bytes,
        }
    }

    /// Gives reservation `id` (out of [`Flight::pending`]) its finish time.
    pub fn commit(
        &self,
        ledger: &mut PoolLedger,
        id: ReservationId,
        finish_us: f64,
    ) -> ProtocolEvent {
        ledger.commit(id, finish_us);
        ProtocolEvent::Commit {
            request: self.id(),
            device: self.device,
            finish_us,
        }
    }

    /// Cancels reservations `ids` (out of [`Flight::pending`]).
    pub fn release(&self, ledger: &mut PoolLedger, ids: Vec<ReservationId>) -> Vec<ProtocolEvent> {
        let release = |id| {
            ledger.release(id);
            ProtocolEvent::Release {
                request: self.id(),
                device: self.device,
            }
        };
        ids.into_iter().map(release).collect()
    }

    /// The shed step: the request leaves unrun. Returns the reservations it
    /// holds, for the caller to release, then the `Shed` event.
    pub fn shed(
        &mut self,
        estimate_us: f64,
        deadline_us: f64,
    ) -> (Vec<ReservationId>, ProtocolEvent) {
        let held = std::mem::take(&mut self.pending);
        let event = ProtocolEvent::Shed {
            request: self.id(),
            device: self.device,
            estimate_us,
            deadline_us,
        };
        (held, event)
    }

    /// An attempt starts at `tier`.
    pub fn attempt_start(&self, tier: ExecTier) -> ProtocolEvent {
        ProtocolEvent::AttemptStart {
            request: self.id(),
            device: self.device,
            attempt: self.attempt,
            tier,
        }
    }

    /// The post-attempt integrity barrier drained `faults` fault events.
    pub fn scrub(&self, faults: usize, corrupted: bool) -> ProtocolEvent {
        ProtocolEvent::Scrub {
            request: self.id(),
            device: self.device,
            faults,
            corrupted,
        }
    }

    /// The retry rule for a discarded attempt on `ladder`: counts it,
    /// charges this attempt's jittered backoff as recovery time, advances
    /// the attempt number, and past `max_retries` discarded attempts at one
    /// tier moves the ladder down a rung.
    pub fn retry(&mut self, ladder: &mut Ladder, max_retries: usize) -> Retry {
        self.retries += 1;
        ladder.discarded += 1;
        let backoff_us = backoff_us(self.request, self.attempt);
        self.recovery_us += backoff_us;
        let event = ProtocolEvent::Backoff {
            request: self.id(),
            backoff_us,
        };
        self.attempt += 1;
        let mut rung = Rung::Same;
        if ladder.discarded as usize > max_retries {
            let from = ladder.tier();
            rung = match ladder.tiers.get(ladder.rung + 1) {
                Some(&to) => {
                    ladder.rung += 1;
                    ladder.discarded = 0;
                    Rung::Degraded { from, to }
                }
                None => Rung::Exhausted,
            };
        }
        Retry {
            backoff_us,
            event,
            rung,
        }
    }

    /// The request moved down the ladder.
    pub fn degrade(&self, from: ExecTier, to: ExecTier) -> ProtocolEvent {
        ProtocolEvent::Degrade {
            request: self.id(),
            from,
            to,
        }
    }

    /// Places `duration_us` of work on the request's device once it is
    /// ready, behind `dead_us` of dead stream time.
    pub fn place(&self, scheduler: &mut Scheduler, dead_us: f64, duration_us: f64) -> Placement {
        scheduler.place_on_device(self.device, self.ready_us, dead_us, duration_us)
    }

    /// The request was placed at `placement`.
    pub fn placed(&self, placement: &Placement) -> ProtocolEvent {
        ProtocolEvent::Place {
            request: self.id(),
            device: placement.device,
            stream: placement.stream,
            start_us: placement.start_us,
            finish_us: placement.finish_us,
        }
    }

    /// The request's output was read back.
    pub fn accept(&self) -> ProtocolEvent {
        ProtocolEvent::Accept {
            request: self.id(),
            device: self.device,
        }
    }
}
