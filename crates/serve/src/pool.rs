//! Device memory pool: cached device-resident formats with LRU eviction and
//! admission control.
//!
//! The one-shot API uploads a fresh F-COO for every call and lets allocation
//! failures surface as [`OutOfMemory`]. A server cannot do either: uploads
//! are the dominant cost of a warm request, and an OOM kills a tenant's job.
//! The pool therefore (a) keeps uploaded formats resident and evicts them
//! LRU-style under pressure, and (b) *admits* jobs against a byte budget —
//! a job whose working set does not fit next to the in-flight reservations
//! is told to wait (queue) instead of failing, mirroring the pressure-aware
//! device-memory management of out-of-memory MTTKRP systems
//! (arXiv:2201.12523).
//!
//! All accounting — residency budgets, the reservation lifecycle, LRU
//! victim selection — lives in the pure [`PoolLedger`], and the admission
//! decision over it is [`crate::protocol::admit`]; this type adds only the
//! actual device uploads and the `Arc<AnyFormatDevice>` handles (the pool
//! is format-erased: an F-COO and a BF-COO plan cache and evict
//! identically, BF-COO just charges its bucket metadata too). The
//! `modelcheck` crate runs the same rule over the ledger directly, so the
//! protocol it proves is the one running here.
//!
//! [`OutOfMemory`]: gpu_sim::memory::OutOfMemory

use crate::ledger::PoolLedger;
use crate::plan::PlanKey;
use crate::protocol;
use fcoo::{AnyFormat, AnyFormatDevice};
use gpu_sim::memory::DeviceMemory;
use std::collections::BTreeMap;
use std::sync::Arc;

pub use crate::ledger::{AdmitError, PoolStats, ReservationId};

/// A successfully admitted format.
#[derive(Debug)]
pub struct Admitted {
    /// The device-resident format (cached or freshly uploaded).
    pub format: Arc<AnyFormatDevice>,
    /// True when this admission paid the host→device transfer.
    pub uploaded: bool,
}

/// Pooled view of one device's global memory.
pub struct DevicePool {
    memory: DeviceMemory,
    formats: BTreeMap<PlanKey, Arc<AnyFormatDevice>>,
    ledger: PoolLedger,
}

impl DevicePool {
    /// Creates a pool over `memory`.
    pub fn new(memory: DeviceMemory) -> Self {
        let ledger = PoolLedger::new(memory.capacity());
        DevicePool {
            memory,
            formats: BTreeMap::new(),
            ledger,
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> PoolStats {
        self.ledger.stats()
    }

    /// Bytes currently reserved by in-flight jobs (transient working sets).
    pub fn reserved_bytes(&self) -> usize {
        self.ledger.reserved_bytes()
    }

    /// The pool's device memory handle.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// The pure accounting core (for inspection and state digests).
    pub fn ledger(&self) -> &PoolLedger {
        &self.ledger
    }

    /// The accounting core, for the reservation rules of
    /// [`crate::protocol`]. Residency only changes through `admit`,
    /// `make_room` and `clear`, which keep the format handles in step.
    pub(crate) fn ledger_mut(&mut self) -> &mut PoolLedger {
        &mut self.ledger
    }

    /// Releases reservations whose jobs finish at or before `now_us` and
    /// unpins their formats.
    pub fn retire(&mut self, now_us: f64) {
        self.ledger.retire(now_us);
    }

    /// Admits a job that needs `key`'s format (uploading `format` if
    /// absent, budgeted at `format_bytes`) plus `transient_bytes` of
    /// factors/output.
    ///
    /// Evicts least-recently-used unpinned formats as needed. Returns
    /// [`AdmitError::Defer`] when the job must wait for in-flight
    /// reservations, [`AdmitError::TooLarge`] when it can never fit.
    pub fn admit(
        &mut self,
        key: PlanKey,
        format: &AnyFormat,
        format_bytes: usize,
        transient_bytes: usize,
    ) -> Result<Admitted, AdmitError> {
        let admission = protocol::admit(
            &mut self.ledger,
            key,
            format_bytes,
            transient_bytes,
            self.memory.live_bytes(),
        )?;
        for k in admission.evicted {
            self.formats.remove(&k);
        }
        if admission.resident {
            let format = self
                .formats
                .get(&key)
                .map(Arc::clone)
                .expect("resident ledger slot always has a format handle");
            return Ok(Admitted {
                format,
                uploaded: false,
            });
        }
        let device_format = match format.upload(&self.memory) {
            Ok(f) => f,
            Err(_) => {
                // The byte estimate was low; shed the whole cache and retry
                // once before reporting pressure.
                for k in self.ledger.evict_all_unpinned() {
                    self.formats.remove(&k);
                }
                match format.upload(&self.memory) {
                    Ok(f) => f,
                    Err(oom) => {
                        return Err(self
                            .ledger
                            .defer_or_too_large(oom.requested + transient_bytes))
                    }
                }
            }
        };
        let device_format = Arc::new(device_format);
        self.ledger.record_upload(key, format_bytes);
        self.formats.insert(key, Arc::clone(&device_format));
        Ok(Admitted {
            format: device_format,
            uploaded: true,
        })
    }

    /// Out-of-core admission ([`protocol::make_room`]): frees room for
    /// `transient_bytes` and two chunks of up to `max_chunk_bytes` next to
    /// the live allocations but uploads nothing. Same error contract as
    /// [`DevicePool::admit`].
    pub fn make_room(
        &mut self,
        requesting: PlanKey,
        transient_bytes: usize,
        max_chunk_bytes: usize,
    ) -> Result<(), AdmitError> {
        let live_bytes = self.memory.live_bytes();
        for k in protocol::make_room(
            &mut self.ledger,
            requesting,
            transient_bytes,
            max_chunk_bytes,
            live_bytes,
        )? {
            self.formats.remove(&k);
        }
        Ok(())
    }

    /// Drops every unpinned cached format (used by tests and shutdown).
    pub fn clear(&mut self) {
        for k in self.ledger.evict_all_unpinned() {
            self.formats.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcoo::{FormatKind, TensorOp};
    use gpu_sim::GpuDevice;
    use tensor_core::datasets::{self, DatasetKind};

    fn format_for(seed: u64, kind: FormatKind) -> (PlanKey, AnyFormat) {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1200, seed);
        let format = AnyFormat::build(kind, &tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
        let key = PlanKey::new(
            crate::fingerprint::tensor_fingerprint(&tensor),
            TensorOp::SpMttkrp { mode: 0 },
            8,
        );
        (key, format)
    }

    fn fcoo_for(seed: u64) -> (PlanKey, AnyFormat) {
        format_for(seed, FormatKind::Fcoo)
    }

    fn bytes_of(format: &AnyFormat) -> usize {
        crate::plan::format_bytes(format)
    }

    #[test]
    fn admission_caches_and_reuses_formats() {
        let device = GpuDevice::titan_x();
        let mut pool = DevicePool::new(device.memory().clone());
        let (key, fcoo) = fcoo_for(3);
        let fb = bytes_of(&fcoo);
        let first = pool.admit(key, &fcoo, fb, 1024).unwrap();
        assert!(first.uploaded);
        let second = pool.admit(key, &fcoo, fb, 1024).unwrap();
        assert!(!second.uploaded);
        assert_eq!(pool.stats().uploads, 1);
        assert_eq!(pool.stats().format_reuses, 1);
        assert!(pool.ledger().is_resident(key));
    }

    #[test]
    fn bfcoo_admission_charges_bucket_metadata_and_caches() {
        // Regression for the format-erased pool: pre-refactor admission
        // uploaded a bare FcooDevice, silently dropping BF-COO's schedule
        // metadata (and under-charging its bytes).
        let device = GpuDevice::titan_x();
        let mut pool = DevicePool::new(device.memory().clone());
        let (key, bfcoo) = format_for(3, FormatKind::BfCoo);
        let (_, fcoo) = format_for(3, FormatKind::Fcoo);
        assert!(
            bytes_of(&bfcoo) > bytes_of(&fcoo),
            "bucket metadata must be part of the admission budget"
        );
        let admitted = pool.admit(key, &bfcoo, bytes_of(&bfcoo), 1024).unwrap();
        assert!(admitted.uploaded);
        assert_eq!(admitted.format.kind(), FormatKind::BfCoo);
        let again = pool.admit(key, &bfcoo, bytes_of(&bfcoo), 1024).unwrap();
        assert!(!again.uploaded);
        assert_eq!(again.format.kind(), FormatKind::BfCoo);
        assert_eq!(pool.stats().uploads, 1);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let (key_a, fcoo_a) = fcoo_for(1);
        let (key_b, fcoo_b) = fcoo_for(2);
        let fa = bytes_of(&fcoo_a);
        let fb = bytes_of(&fcoo_b);
        // Capacity fits one format plus transients, not two.
        let memory = DeviceMemory::new(fa.max(fb) + 4096);
        let mut pool = DevicePool::new(memory);
        pool.admit(key_a, &fcoo_a, fa, 512).unwrap();
        let admitted = pool.admit(key_b, &fcoo_b, fb, 512).unwrap();
        assert!(admitted.uploaded);
        assert_eq!(pool.stats().evictions, 1, "A was evicted for B");
        assert!(pool.ledger().is_resident(key_b));
        assert!(!pool.ledger().is_resident(key_a));
        // Memory never exceeded capacity.
        assert!(pool.memory().peak_bytes() <= pool.memory().capacity());
    }

    #[test]
    fn pinned_formats_defer_instead_of_evicting() {
        let (key_a, fcoo_a) = fcoo_for(1);
        let (key_b, fcoo_b) = fcoo_for(2);
        let fa = bytes_of(&fcoo_a);
        let fb = bytes_of(&fcoo_b);
        let memory = DeviceMemory::new(fa.max(fb) + 4096);
        let mut pool = DevicePool::new(memory);
        pool.admit(key_a, &fcoo_a, fa, 512).unwrap();
        let id = pool.ledger_mut().reserve_pending(key_a, 512);
        pool.ledger_mut().commit(id, 100.0);
        // A is pinned by an in-flight job: B must wait, not OOM.
        let err = pool.admit(key_b, &fcoo_b, fb, 512).unwrap_err();
        assert_eq!(err, AdmitError::Defer { until_us: 100.0 });
        // Once the in-flight job retires, B is admitted.
        pool.retire(100.0);
        assert!(pool.admit(key_b, &fcoo_b, fb, 512).is_ok());
        assert!(pool.memory().peak_bytes() <= pool.memory().capacity());
    }

    #[test]
    fn impossible_jobs_are_rejected_not_oomed() {
        let (key, fcoo) = fcoo_for(1);
        let memory = DeviceMemory::new(1 << 16);
        let mut pool = DevicePool::new(memory);
        let err = pool.admit(key, &fcoo, 1 << 20, 1 << 20).unwrap_err();
        assert!(matches!(err, AdmitError::TooLarge { .. }));
    }

    #[test]
    fn failed_jobs_release_their_reservations() {
        // Regression: a job that fails after acquiring device memory must
        // leave pool bytes-in-use and format pins exactly as it found them.
        let device = GpuDevice::titan_x();
        let mut pool = DevicePool::new(device.memory().clone());
        let (key, fcoo) = fcoo_for(6);
        let fb = bytes_of(&fcoo);
        pool.admit(key, &fcoo, fb, 2048).unwrap();
        let before = pool.reserved_bytes();
        let id = pool.ledger_mut().reserve_pending(key, 2048);
        assert_eq!(pool.reserved_bytes(), before + 2048);
        // Pending reservations have no finish time and never self-retire.
        assert_eq!(pool.ledger().earliest_release(), None);
        pool.retire(f64::MAX);
        assert_eq!(pool.reserved_bytes(), before + 2048);
        // The job fails: release must restore bytes-in-use exactly.
        pool.ledger_mut().release(id);
        assert_eq!(pool.reserved_bytes(), before);
        // The format is unpinned again: releasing twice must not underflow
        // another job's pin.
        let other = pool.ledger_mut().reserve_pending(key, 512);
        pool.ledger_mut().release(id);
        assert_eq!(pool.reserved_bytes(), 512);
        pool.ledger_mut().release(other);
        assert_eq!(pool.reserved_bytes(), 0);
    }

    #[test]
    fn committed_reservations_retire_like_direct_ones() {
        let device = GpuDevice::titan_x();
        let mut pool = DevicePool::new(device.memory().clone());
        let (key, fcoo) = fcoo_for(7);
        let fb = bytes_of(&fcoo);
        pool.admit(key, &fcoo, fb, 1024).unwrap();
        let id = pool.ledger_mut().reserve_pending(key, 1024);
        pool.ledger_mut().commit(id, 75.0);
        assert_eq!(pool.ledger().earliest_release(), Some(75.0));
        pool.retire(75.0);
        assert_eq!(pool.reserved_bytes(), 0);
        assert_eq!(pool.ledger().earliest_release(), None);
    }

    #[test]
    fn retire_frees_reservations() {
        let device = GpuDevice::titan_x();
        let mut pool = DevicePool::new(device.memory().clone());
        let (key, fcoo) = fcoo_for(5);
        let fb = bytes_of(&fcoo);
        pool.admit(key, &fcoo, fb, 2048).unwrap();
        for finish_us in [50.0, 80.0] {
            let id = pool.ledger_mut().reserve_pending(key, 2048);
            pool.ledger_mut().commit(id, finish_us);
        }
        assert_eq!(pool.reserved_bytes(), 4096);
        assert_eq!(pool.ledger().earliest_release(), Some(50.0));
        pool.retire(60.0);
        assert_eq!(pool.reserved_bytes(), 2048);
        pool.retire(90.0);
        assert_eq!(pool.reserved_bytes(), 0);
        assert_eq!(pool.ledger().earliest_release(), None);
    }

    #[test]
    fn ledger_mirrors_pool_accounting() {
        // The pool's public counters must be views of its ledger, and the
        // ledger digest must move exactly when the accounting state moves.
        let device = GpuDevice::titan_x();
        let mut pool = DevicePool::new(device.memory().clone());
        let (key, fcoo) = fcoo_for(9);
        let fb = bytes_of(&fcoo);
        pool.admit(key, &fcoo, fb, 1024).unwrap();
        let d0 = pool.ledger().digest(0);
        assert_eq!(pool.ledger().digest(0), d0, "digest is a pure function");
        let id = pool.ledger_mut().reserve_pending(key, 1024);
        assert_ne!(pool.ledger().digest(0), d0, "reservation moves the digest");
        assert_eq!(pool.ledger().pending_reservations(), 1);
        assert_eq!(pool.ledger().total_pins(), 1);
        pool.ledger_mut().commit(id, 10.0);
        pool.retire(10.0);
        assert_eq!(pool.ledger().pending_reservations(), 0);
        assert_eq!(pool.ledger().total_pins(), 0);
        assert_eq!(pool.ledger().reserved_bytes(), pool.reserved_bytes());
    }
}
