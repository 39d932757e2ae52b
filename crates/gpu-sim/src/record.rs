//! Memory-access recording for sanitizer passes (compute-sanitizer style).
//!
//! When a [`GpuDevice`](crate::GpuDevice) is put into recording mode
//! ([`GpuDevice::start_recording`](crate::GpuDevice::start_recording)), every
//! launch captures two parallel streams of evidence per thread block:
//!
//! * **narrated** events — what the kernel *claims* its memory behaviour is,
//!   emitted by the [`BlockCtx`](crate::BlockCtx) narration methods
//!   (`read_global`, `write_global_shared`, `read_global_range`, …);
//! * **functional** events — what the kernel *actually* touched, hooked at
//!   the [`DeviceBuffer`](crate::DeviceBuffer) `get`/`write`/`atomic_add_f32`
//!   level.
//!
//! Each event carries enough ordering context (warp index, barrier epoch,
//! adjacent-sync position) for a replay checker to decide whether two
//! conflicting accesses are synchronized. The `sanitizer` crate consumes the
//! resulting [`AccessLog`] to run race, out-of-bounds and narration-audit
//! passes; this module only records.
//!
//! Events are collected in the running block's instrumentation slot, which
//! also holds the profiler's trace and the block's queued float atomics.
//! Host-side accesses (uploads, `to_vec` downloads between launches) run in
//! no block and are deliberately not captured — they model `cudaMemcpy`,
//! not kernel traffic.

/// What a recorded memory event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read the kernel narrated to the cost model.
    NarratedRead,
    /// A write the kernel narrated to the cost model.
    NarratedWrite,
    /// An atomic the kernel narrated to the cost model.
    NarratedAtomic,
    /// A read the kernel actually performed (`DeviceBuffer::get`).
    FunctionalRead,
    /// A plain write the kernel actually performed (`DeviceBuffer::write`).
    FunctionalWrite,
    /// An atomic add the kernel actually performed
    /// (`DeviceBuffer::atomic_add_f32`).
    FunctionalAtomic,
}

impl AccessKind {
    /// True for events hooked at the functional (`DeviceBuffer`) level.
    pub fn is_functional(self) -> bool {
        matches!(
            self,
            AccessKind::FunctionalRead | AccessKind::FunctionalWrite | AccessKind::FunctionalAtomic
        )
    }
}

/// One recorded memory access with its ordering context.
#[derive(Debug, Clone)]
pub struct Event {
    /// First byte of the accessed range (virtual device address).
    pub addr: u64,
    /// Length of the accessed range in bytes.
    pub bytes: u32,
    /// What the access was and which layer observed it.
    pub kind: AccessKind,
    /// Warp the access belongs to (warp-granular: lanes are not separated).
    pub warp: u32,
    /// Sync epoch within the warp: the number of sync events (`syncthreads`
    /// barriers *and* `adjacent_sync` waits) the warp had passed when the
    /// event fired. Warps of one block executing SPMD code hit the same sync
    /// sequence, so equal epochs mean "between the same pair of syncs" and
    /// differing epochs mean an intervening sync separates the accesses.
    pub epoch: u32,
    /// How many `adjacent_sync` waits the block had completed when the event
    /// fired. Block-scoped (never reset per warp): events of block `b` at
    /// adjacent epoch `k` are ordered behind events of a linearly-earlier
    /// block at adjacent epoch `j` exactly when `k > j` — each wait rides one
    /// round of the StreamScan domino (paper §IV-D).
    pub adjacent_epoch: u32,
}

/// All events of one thread block, in program order.
#[derive(Debug, Clone, Default)]
pub struct BlockRecord {
    /// Linearized block index (x-major, matching launch order).
    pub block: usize,
    /// The block's recorded events.
    pub events: Vec<Event>,
}

/// One recorded kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Grid shape of the launch.
    pub grid: (usize, usize),
    /// Threads per block.
    pub block_threads: usize,
    /// Per-block event logs, in linear block order.
    pub blocks: Vec<BlockRecord>,
    /// Live allocations `(base, bytes)` snapshotted when the launch
    /// finished, for the shadow-memory (out-of-bounds) check.
    pub allocations: Vec<(u64, usize)>,
}

/// Everything recorded between `start_recording` and `stop_recording`,
/// possibly spanning several launches (e.g. the two-step method's two
/// kernels).
#[derive(Debug, Clone, Default)]
pub struct AccessLog {
    /// Recorded launches, in issue order.
    pub launches: Vec<LaunchRecord>,
}

impl AccessLog {
    /// Total events across all launches and blocks.
    pub fn event_count(&self) -> usize {
        self.launches
            .iter()
            .flat_map(|l| &l.blocks)
            .map(|b| b.events.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_attributes_warp_epoch_and_adjacency() {
        use crate::instrument::{self, Accesses, SlotGuard};
        use crate::stats::BlockStats;
        use crate::trace::MemoryEventKind;
        // The recorder hooks fire while any device records.
        instrument::open_gate(instrument::RECORDING);
        let block = SlotGuard::begin(3, true, false);
        instrument::functional(AccessKind::FunctionalRead, 0x100, 4);
        instrument::begin_warp();
        instrument::functional(AccessKind::FunctionalRead, 0x200, 4);
        instrument::sync(false);
        instrument::functional(AccessKind::FunctionalWrite, 0x300, 4);
        instrument::begin_warp();
        instrument::sync(true);
        let stats = BlockStats::default();
        let lanes = Accesses::Lanes(&[0x400, 0x404]);
        instrument::narrate(MemoryEventKind::GlobalWrite, lanes, 0, &stats, 32);
        let record = block.finish().record.unwrap();
        assert_eq!(record.block, 3);
        assert_eq!(record.events.len(), 5);
        assert_eq!((record.events[0].warp, record.events[0].epoch), (0, 0));
        assert_eq!((record.events[1].warp, record.events[1].epoch), (0, 0));
        assert_eq!((record.events[2].warp, record.events[2].epoch), (0, 1));
        // Second begin_warp resets the sync epoch and bumps the warp; the
        // adjacent_sync then counts as one sync event and one domino round.
        assert_eq!((record.events[3].warp, record.events[3].epoch), (1, 1));
        assert_eq!(record.events[3].kind, AccessKind::NarratedWrite);
        assert_eq!(record.events[2].adjacent_epoch, 0);
        assert_eq!(record.events[3].adjacent_epoch, 1);
        assert_eq!(record.events[4].adjacent_epoch, 1);
        // No block is running anymore: events are dropped silently.
        instrument::functional(AccessKind::FunctionalRead, 0x500, 4);
        let next = SlotGuard::begin(4, true, false).finish().record.unwrap();
        assert!(next.events.is_empty());
        instrument::close_gate(instrument::RECORDING);
    }

    #[test]
    fn access_kind_classification() {
        assert!(AccessKind::FunctionalRead.is_functional());
        assert!(!AccessKind::NarratedRead.is_functional());
    }
}
