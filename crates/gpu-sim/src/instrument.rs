//! The running block's instrumentation slot.
//!
//! Blocks run each on one pool thread, so a single thread-local slot, set
//! up around the kernel closure, attributes everything a block leaves
//! besides its [`BlockStats`] without locking:
//!
//! * the sanitizer's [`BlockRecord`], while the device records;
//! * the profiler's [`BlockTrace`], while the device traces;
//! * the block's queued float atomics, always: a launch applies them in
//!   block-linear order once every block has run, so float sums do not
//!   depend on which host thread ran which block first.
//!
//! Record and trace share one warp/sync cursor. Every hook is behind one
//! relaxed load of a global gate that counts the devices recording and
//! tracing, so an uninstrumented run never touches the slot for them, and
//! recorder-only hooks stay off the slot in a run that only traces.
//! Host-side accesses (uploads, downloads between launches) find no slot
//! and are not captured: they model `cudaMemcpy`, not kernel traffic.

use crate::record::{AccessKind, BlockRecord, Event};
use crate::stats::BlockStats;
use crate::trace::{BlockTrace, MemoryEvent, MemoryEventKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Gate increment of one device in sanitizer recording mode.
pub(crate) const RECORDING: u64 = 1;
/// Gate increment of one device in profiler tracing mode.
pub(crate) const TRACING: u64 = 1 << 32;

/// Devices recording (low 32 bits) and tracing (high 32 bits).
static GATE: AtomicU64 = AtomicU64::new(0);

/// Counts a device into `sink` ([`RECORDING`] or [`TRACING`]).
pub(crate) fn open_gate(sink: u64) {
    GATE.fetch_add(sink, Ordering::Relaxed);
}

/// Counts a device out of `sink`.
pub(crate) fn close_gate(sink: u64) {
    GATE.fetch_sub(sink, Ordering::Relaxed);
}

/// True if any device is recording.
#[inline]
pub(crate) fn recording_active() -> bool {
    GATE.load(Ordering::Relaxed) & (TRACING - 1) != 0
}

/// True if any device is recording or tracing.
#[inline]
fn instrumented() -> bool {
    GATE.load(Ordering::Relaxed) != 0
}

/// The accesses one narration method names.
#[derive(Clone, Copy)]
pub(crate) enum Accesses<'a> {
    /// One access per lane.
    Lanes(&'a [u64]),
    /// One contiguous range: start address and length in bytes.
    Range(u64, usize),
}

/// A float atomic issued inside a launched block and not yet applied.
struct PendingAdd {
    cell: *mut f32,
    value: f32,
}

// SAFETY: a pending add is only dereferenced by `BlockOutput::apply_atomics`
// while its buffer is live: launches apply them before returning (the
// kernel borrows every buffer it was handed for the whole launch), and a
// buffer released inside the block flushes its own adds first.
unsafe impl Send for PendingAdd {}

struct Slot {
    /// `begin_warp` calls so far; the current warp is one less (0 before
    /// the first call).
    warps: u32,
    /// Sync events the current warp has passed (reset per warp).
    epoch: u32,
    /// Adjacent-sync waits the block has completed (never reset).
    adjacent_epoch: u32,
    record: Option<BlockRecord>,
    trace: Option<BlockTrace>,
    /// The trace counters at the previous narration: counters move only in
    /// narration methods, so the change since then is this one's charge.
    charged: [u64; 4],
    atomics: Vec<PendingAdd>,
}

impl Slot {
    fn warp(&self) -> u32 {
        self.warps.saturating_sub(1)
    }

    fn record(&mut self, kind: AccessKind, addr: u64, bytes: u32) {
        let (warp, epoch, adjacent_epoch) = (self.warp(), self.epoch, self.adjacent_epoch);
        if let Some(record) = self.record.as_mut() {
            record.events.push(Event {
                addr,
                bytes,
                kind,
                warp,
                epoch,
                adjacent_epoch,
            });
        }
    }
}

thread_local! {
    static SLOT: RefCell<Option<Slot>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's slot, if a block is running. Kept out of line
/// so that each gated hook inlines to its gate load and one call.
#[inline(never)]
fn with_slot(f: impl FnOnce(&mut Slot)) {
    SLOT.with(|slot| {
        if let Some(slot) = slot.borrow_mut().as_mut() {
            f(slot);
        }
    });
}

/// What one block leaves for its launch besides its stats.
#[derive(Default)]
pub(crate) struct BlockOutput {
    /// The block's recorded events, if the device recorded.
    pub(crate) record: Option<BlockRecord>,
    /// The block's traced events, if the device traced.
    pub(crate) trace: Option<BlockTrace>,
    atomics: Vec<PendingAdd>,
}

impl BlockOutput {
    /// Applies the block's float atomics in issue order.
    pub(crate) fn apply_atomics(&mut self) {
        for add in self.atomics.drain(..) {
            // SAFETY: see `PendingAdd`'s `Send` impl.
            unsafe { add_to_cell(add.cell, add.value) };
        }
    }
}

/// Holds this thread's slot for one block. Dropping it without finishing
/// (the kernel panicked) clears the slot, so the worker that ran the block
/// carries nothing into its next task.
pub(crate) struct SlotGuard(());

impl SlotGuard {
    /// Installs a fresh slot for `block` on this thread.
    pub(crate) fn begin(block: usize, record: bool, trace: bool) -> Self {
        let slot = Slot {
            warps: 0,
            epoch: 0,
            adjacent_epoch: 0,
            record: record.then(|| BlockRecord {
                block,
                events: Vec::new(),
            }),
            trace: trace.then(|| BlockTrace {
                block,
                ..BlockTrace::default()
            }),
            charged: [0; 4],
            atomics: Vec::new(),
        };
        SLOT.with(|current| *current.borrow_mut() = Some(slot));
        SlotGuard(())
    }

    /// Removes the slot and returns what the block left.
    pub(crate) fn finish(self) -> BlockOutput {
        let slot = SLOT
            .with(|current| current.borrow_mut().take())
            .expect("the block's slot is installed until it finishes");
        BlockOutput {
            record: slot.record,
            trace: slot.trace.map(|trace| BlockTrace {
                warps: u64::from(slot.warps),
                ..trace
            }),
            atomics: slot.atomics,
        }
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        SLOT.with(|current| *current.borrow_mut() = None);
    }
}

/// Advances the cursor to the next warp, resetting its sync epoch (warps of
/// a block run the same sync sequence; the adjacent epoch is block-scoped).
#[inline]
pub(crate) fn begin_warp() {
    if instrumented() {
        with_slot(|slot| {
            slot.warps += 1;
            slot.epoch = 0;
        });
    }
}

/// Advances the current warp's sync epoch: a `syncthreads` barrier, or an
/// adjacent-synchronization wait, which also completes one round of the
/// StreamScan domino (paper §IV-D).
#[inline]
pub(crate) fn sync(adjacent: bool) {
    if recording_active() {
        with_slot(|slot| {
            slot.epoch += 1;
            slot.adjacent_epoch += u32::from(adjacent);
        });
    }
}

/// Records one access the kernel actually performed at the `DeviceBuffer`
/// level.
#[inline]
pub(crate) fn functional(kind: AccessKind, addr: u64, bytes: u32) {
    if recording_active() {
        with_slot(|slot| slot.record(kind, addr, bytes));
    }
}

/// Observes one narrated memory operation after its cost was charged to
/// `stats`: the record gets its accesses, the trace one event carrying the
/// counters it moved (`atomic_multiplicity` is the worst lane conflict of
/// an atomic batch, else 0).
#[inline]
pub(crate) fn narrate(
    kind: MemoryEventKind,
    accesses: Accesses,
    atomic_multiplicity: u64,
    stats: &BlockStats,
    transaction_bytes: usize,
) {
    if instrumented() {
        with_slot(|slot| {
            narrate_into(
                slot,
                kind,
                accesses,
                atomic_multiplicity,
                stats,
                transaction_bytes,
            )
        });
    }
}

fn narrate_into(
    slot: &mut Slot,
    kind: MemoryEventKind,
    accesses: Accesses,
    atomic_multiplicity: u64,
    stats: &BlockStats,
    transaction_bytes: usize,
) {
    let access = match kind {
        MemoryEventKind::Atomic => AccessKind::NarratedAtomic,
        MemoryEventKind::GlobalWrite | MemoryEventKind::StreamWrite => AccessKind::NarratedWrite,
        _ => AccessKind::NarratedRead,
    };
    match accesses {
        Accesses::Lanes(addrs) => {
            let bytes = if kind == MemoryEventKind::Atomic {
                4
            } else {
                1
            };
            for &addr in addrs {
                slot.record(access, addr, bytes);
            }
        }
        Accesses::Range(start, bytes) => {
            slot.record(access, start, u32::try_from(bytes).unwrap_or(u32::MAX));
        }
    }
    let warp = slot.warp();
    let Some(trace) = slot.trace.as_mut() else {
        return;
    };
    let counters = [
        stats.transactions,
        stats.dram_bytes,
        stats.rocache_hits,
        stats.rocache_misses,
    ];
    let [transactions, dram_bytes, cache_hits, cache_misses] =
        std::array::from_fn(|i| counters[i] - slot.charged[i]);
    slot.charged = counters;
    let lanes = match accesses {
        Accesses::Lanes(addrs) if !addrs.is_empty() => addrs.len() as u64,
        Accesses::Range(_, bytes) if bytes > 0 => 0,
        _ => return,
    };
    // The perfectly coalesced baseline of a warp-wide batch of 4-byte lane
    // accesses. Ranges and cache probes count as coalesced by construction,
    // and broadcast-style accesses can beat the payload baseline (one
    // sector serves every lane), so efficiency is clamped at 1.
    let ideal = match kind {
        MemoryEventKind::GlobalRead | MemoryEventKind::GlobalWrite | MemoryEventKind::Atomic => {
            (lanes * 4).div_ceil(transaction_bytes.max(1) as u64)
        }
        _ => transactions,
    };
    let atomic = kind == MemoryEventKind::Atomic;
    trace.events.push(MemoryEvent {
        warp,
        kind,
        transactions,
        ideal_transactions: ideal.min(transactions),
        dram_bytes,
        cache_hits,
        cache_misses,
        atomic_lanes: if atomic { lanes } else { 0 },
        atomic_multiplicity,
    });
}

/// Adds `value` to the `f32` in `cell` (CUDA `atomicAdd`): queued for the
/// launch to apply in block order inside a launched block, at once
/// elsewhere.
///
/// # Safety
/// `cell` must point to an element of a live `f32` buffer.
pub(crate) unsafe fn atomic_add(cell: *mut f32, value: f32) {
    let mut queued = false;
    with_slot(|slot| {
        slot.atomics.push(PendingAdd { cell, value });
        queued = true;
    });
    if !queued {
        // SAFETY: the caller's contract.
        unsafe { add_to_cell(cell, value) };
    }
}

/// Applies and unqueues this thread's pending atomics into the host bytes
/// `[start, end)`, before the buffer holding them is released.
pub(crate) fn flush_atomics(start: usize, end: usize) {
    with_slot(|slot| {
        slot.atomics.retain(|add| {
            if (start..end).contains(&(add.cell as usize)) {
                // SAFETY: the buffer holding the cell is not yet released.
                unsafe { add_to_cell(add.cell, add.value) };
                false
            } else {
                true
            }
        });
    });
}

/// Adds `value` to the `f32` in `cell` with a compare-and-swap loop on its
/// bit pattern.
///
/// # Safety
/// `cell` must point to an element of a live `f32` buffer.
unsafe fn add_to_cell(cell: *mut f32, value: f32) {
    // SAFETY: UnsafeCell<f32> and AtomicU32 have identical size and
    // alignment; all concurrent accesses to accumulated elements go through
    // this function.
    let atomic: &AtomicU32 = unsafe { AtomicU32::from_ptr(cell.cast::<u32>()) };
    let mut current = atomic.load(Ordering::Relaxed);
    loop {
        let next = (f32::from_bits(current) + value).to_bits();
        match atomic.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}
