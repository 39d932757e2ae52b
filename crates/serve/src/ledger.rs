//! Pure byte-accounting core of the device pool.
//!
//! [`PoolLedger`] is the arithmetic heart of [`crate::pool::DevicePool`]:
//! which formats are resident (and how many bytes each was budgeted), which
//! reservations are in flight (pending or committed), LRU recency, pins, and
//! the admission decision itself. It holds **no device memory and no
//! uploaded data** — only numbers — so it is `Clone`, comparable, and cheap
//! to hash, which is exactly what the `modelcheck` crate needs to explore
//! every interleaving of the admission protocol over the *real* accounting
//! code instead of a hand-written abstraction. `DevicePool` delegates every
//! accounting decision here and only adds the actual uploads.

use crate::plan::PlanKey;
use std::collections::BTreeMap;

/// Why a job could not be admitted right now.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// Working set exceeds what is free next to in-flight jobs; retry once
    /// reservations up to `until_us` have retired.
    Defer {
        /// Simulated time at which the earliest in-flight reservation ends.
        until_us: f64,
    },
    /// The job can never fit: its working set exceeds device capacity even
    /// with an empty cache.
    TooLarge {
        /// Bytes the job needs resident at once.
        working_set: usize,
        /// Device capacity in bytes.
        capacity: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Defer { until_us } => {
                write!(f, "queued until in-flight work retires at {until_us:.1} µs")
            }
            AdmitError::TooLarge {
                working_set,
                capacity,
            } => write!(
                f,
                "working set {working_set} B exceeds device capacity {capacity} B"
            ),
        }
    }
}

/// Pool activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Formats uploaded (admission misses).
    pub uploads: u64,
    /// Admissions served by an already-resident format.
    pub format_reuses: u64,
    /// Cached formats evicted under memory pressure.
    pub evictions: u64,
}

/// Handle to a pending (not yet committed) reservation. A job holds one
/// while it executes; [`PoolLedger::commit`] turns it into a timed
/// reservation on success and [`PoolLedger::release`] cancels it on failure,
/// so an aborted job never leaks bytes or format pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationId(u64);

#[derive(Debug, Clone, PartialEq)]
struct Slot {
    /// Byte budget this format was admitted under (its upload estimate).
    bytes: usize,
    last_used: u64,
    /// In-flight jobs currently using this format (eviction barrier).
    pins: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Reservation {
    id: u64,
    finish_us: f64,
    bytes: usize,
    key: PlanKey,
}

/// Byte-exact accounting for one device's pool: resident-format budgets,
/// reservation lifecycle (`reserve_pending` → `commit`/`release` → retire),
/// LRU victim selection, and the queue-not-OOM admission decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolLedger {
    capacity: usize,
    slots: BTreeMap<PlanKey, Slot>,
    reservations: Vec<Reservation>,
    tick: u64,
    next_reservation: u64,
    stats: PoolStats,
}

impl PoolLedger {
    /// Creates an empty ledger for a device with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        PoolLedger {
            capacity,
            slots: BTreeMap::new(),
            reservations: Vec::new(),
            tick: 0,
            next_reservation: 0,
            stats: PoolStats::default(),
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Activity counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Bytes currently reserved by in-flight jobs (transient working sets).
    pub fn reserved_bytes(&self) -> usize {
        self.reservations.iter().map(|r| r.bytes).sum()
    }

    /// Number of reservations that are still pending (no finish time yet).
    pub fn pending_reservations(&self) -> usize {
        self.reservations
            .iter()
            .filter(|r| !r.finish_us.is_finite())
            .count()
    }

    /// Total format pins held by in-flight reservations.
    pub fn total_pins(&self) -> usize {
        self.slots.values().map(|s| s.pins).sum()
    }

    /// Number of resident formats.
    pub fn cached_formats(&self) -> usize {
        self.slots.len()
    }

    /// Sum of the byte budgets of all resident formats.
    pub fn cached_bytes(&self) -> usize {
        self.slots.values().map(|s| s.bytes).sum()
    }

    /// True when `key`'s format is resident. Does not touch recency.
    pub fn is_resident(&self, key: PlanKey) -> bool {
        self.slots.contains_key(&key)
    }

    /// Releases reservations whose jobs finish at or before `now_us` and
    /// unpins their formats.
    pub fn retire(&mut self, now_us: f64) {
        let mut kept = Vec::with_capacity(self.reservations.len());
        for r in self.reservations.drain(..) {
            if r.finish_us <= now_us {
                if let Some(slot) = self.slots.get_mut(&r.key) {
                    slot.pins = slot.pins.saturating_sub(1);
                }
            } else {
                kept.push(r);
            }
        }
        self.reservations = kept;
    }

    /// True when `key`'s format is resident (bumps its LRU recency).
    pub fn touch_resident(&mut self, key: PlanKey) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.slots.get_mut(&key) {
            Some(slot) => {
                slot.last_used = tick;
                true
            }
            None => false,
        }
    }

    /// Records an admission served by the already-resident `key` (bumps
    /// recency and the reuse counter).
    pub fn record_hit(&mut self, key: PlanKey) {
        if self.touch_resident(key) {
            self.stats.format_reuses += 1;
        }
    }

    /// Records a freshly uploaded format budgeted at `bytes`.
    pub fn record_upload(&mut self, key: PlanKey, bytes: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.stats.uploads += 1;
        self.slots.insert(
            key,
            Slot {
                bytes,
                last_used: tick,
                pins: 0,
            },
        );
    }

    /// Decides whether a job needing `need` fresh bytes next to
    /// `live_bytes` of current allocations can be admitted, evicting LRU
    /// unpinned victims (never `requesting`) as required. Returns the
    /// evicted keys on success so the caller can drop the actual uploads;
    /// freed bytes are credited at each victim's recorded budget.
    pub fn plan_admission(
        &mut self,
        requesting: PlanKey,
        need: usize,
        live_bytes: usize,
    ) -> Result<Vec<PlanKey>, AdmitError> {
        let mut evicted = Vec::new();
        let mut freed = 0usize;
        loop {
            let used = live_bytes.saturating_sub(freed) + self.reserved_bytes();
            if used + need <= self.capacity {
                return Ok(evicted);
            }
            match self.next_victim(requesting) {
                Some(k) => {
                    freed += self.evict(k);
                    evicted.push(k);
                }
                None => return Err(self.defer_or_too_large(need)),
            }
        }
    }

    /// The LRU unpinned format other than `requesting`, if any.
    pub fn next_victim(&self, requesting: PlanKey) -> Option<PlanKey> {
        self.slots
            .iter()
            .filter(|(k, slot)| **k != requesting && slot.pins == 0)
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| *k)
    }

    /// Evicts `key` (counting it) and returns its byte budget. Zero when
    /// the key was not resident.
    pub fn evict(&mut self, key: PlanKey) -> usize {
        match self.slots.remove(&key) {
            Some(slot) => {
                self.stats.evictions += 1;
                slot.bytes
            }
            None => 0,
        }
    }

    /// Evicts every unpinned format and returns the victims.
    pub fn evict_all_unpinned(&mut self) -> Vec<PlanKey> {
        let victims: Vec<PlanKey> = self
            .slots
            .iter()
            .filter(|(_, slot)| slot.pins == 0)
            .map(|(k, _)| *k)
            .collect();
        for k in &victims {
            self.evict(*k);
        }
        victims
    }

    /// The admission error for a job needing `working_set` bytes that
    /// cannot fit right now: [`AdmitError::Defer`] when an in-flight
    /// reservation will free bytes, [`AdmitError::TooLarge`] otherwise.
    pub fn defer_or_too_large(&self, working_set: usize) -> AdmitError {
        match self.earliest_release() {
            Some(until_us) => AdmitError::Defer { until_us },
            None => AdmitError::TooLarge {
                working_set,
                capacity: self.capacity,
            },
        }
    }

    /// Opens a reservation for a job about to execute: `transient_bytes` are
    /// held and `key`'s format is pinned immediately, but no finish time is
    /// known yet. Must be paired with [`PoolLedger::commit`] (job succeeded)
    /// or [`PoolLedger::release`] (job failed) — a failed job that skips
    /// `release` would leak its bytes forever.
    pub fn reserve_pending(&mut self, key: PlanKey, transient_bytes: usize) -> ReservationId {
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.pins += 1;
        }
        self.next_reservation += 1;
        let id = self.next_reservation;
        self.reservations.push(Reservation {
            id,
            finish_us: f64::INFINITY,
            bytes: transient_bytes,
            key,
        });
        ReservationId(id)
    }

    /// Gives a pending reservation its finish time; it now retires through
    /// [`PoolLedger::retire`] like any other. No-op for unknown ids.
    pub fn commit(&mut self, id: ReservationId, finish_us: f64) {
        if let Some(r) = self.reservations.iter_mut().find(|r| r.id == id.0) {
            r.finish_us = finish_us;
        }
    }

    /// Cancels a reservation: its bytes are freed and its format unpinned
    /// immediately (the error path of a failed job). No-op for ids already
    /// retired or released, so it can never double-unpin.
    pub fn release(&mut self, id: ReservationId) {
        if let Some(pos) = self.reservations.iter().position(|r| r.id == id.0) {
            let r = self.reservations.remove(pos);
            if let Some(slot) = self.slots.get_mut(&r.key) {
                slot.pins = slot.pins.saturating_sub(1);
            }
        }
    }

    /// Earliest time an in-flight reservation retires, if any. Pending
    /// (uncommitted) reservations have no finish time and are excluded.
    pub fn earliest_release(&self) -> Option<f64> {
        self.reservations
            .iter()
            .map(|r| r.finish_us)
            .filter(|f| f.is_finite())
            .min_by(f64::total_cmp)
    }

    /// An order-independent 64-bit digest of the complete ledger state
    /// (slots, pins, recency, reservations with their finish-time bits, and
    /// counters), seeded by `seed` so callers can derive independent hash
    /// families. Equal ledgers always digest equally.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = splitmix(seed ^ 0x9e37_79b9_7f4a_7c15);
        h = splitmix(h ^ self.capacity as u64);
        for (k, slot) in &self.slots {
            h = splitmix(h ^ k.digest());
            h = splitmix(h ^ slot.bytes as u64);
            h = splitmix(h ^ slot.last_used);
            h = splitmix(h ^ slot.pins as u64);
        }
        for r in &self.reservations {
            h = splitmix(h ^ r.id);
            h = splitmix(h ^ r.finish_us.to_bits());
            h = splitmix(h ^ r.bytes as u64);
            h = splitmix(h ^ r.key.digest());
        }
        h = splitmix(h ^ self.tick);
        h = splitmix(h ^ self.next_reservation);
        h = splitmix(h ^ self.stats.uploads);
        h = splitmix(h ^ self.stats.format_reuses);
        h = splitmix(h ^ self.stats.evictions);
        h
    }
}

/// The splitmix64 finalizer, the serving layer's one offline mix: state
/// digests (and the `modelcheck` crate's visited-set hashes), retry jitter
/// and redundancy sampling, result checksums and the synthetic workload
/// generator. A cheap, well-mixed, dependency-free 64-bit permutation.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
