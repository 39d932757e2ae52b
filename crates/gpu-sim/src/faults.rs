//! Seeded, deterministic fault injection for the simulated device.
//!
//! Real GPU serving stacks treat transient hardware faults as routine: ECC
//! single-bit events are corrected and logged, double-bit events poison data
//! until the page is retired, kernel launches fail asynchronously, allocations
//! fail under pressure, streams hang, and (rarely) an acknowledged atomic
//! transaction never lands. This module injects all five behaviours into the
//! simulator behind hooks in [`crate::memory`], [`crate::exec`] and
//! [`crate::streams`], with three hard guarantees:
//!
//! 1. **Zero-cost when disabled.** Every hook is gated on
//!    `faults_active()`, a single relaxed atomic load — the same pattern the
//!    sanitizer's recording mode uses. With no injector installed anywhere the
//!    hot path is bit-exact with the un-instrumented simulator.
//! 2. **Deterministic.** Every fault decision is a pure hash of
//!    `(seed, fault kind, deterministic counter or address/value bits)` —
//!    never a shared RNG consumed at access time — so the same workload with
//!    the same seed produces the same faults regardless of how the host
//!    thread pool interleaves blocks. Latched events are sorted before they
//!    are exposed.
//! 3. **Detectable.** Every injected fault latches a [`FaultEvent`] the host
//!    can observe (the analog of ECC/Xid error reporting), so a serving layer
//!    polling [`DeviceMemory::scrub_faults`] after each attempt never serves a
//!    corrupted result.
//!
//! Uncorrectable (double-bit) flips corrupt reads by XOR-ing a two-bit mask
//! into the stored value until the memory is scrubbed; flips target `f32`
//! value buffers allocated while injection is enabled (index/metadata words
//! are modeled as parity-protected). Detection of ECC events is delayed by
//! [`FaultConfig::detection_latency`] launches — [`DeviceMemory::drain_faults`]
//! only reports matured events, while [`DeviceMemory::scrub_faults`] forces
//! full detection *and* repairs armed flips, which is the integrity barrier a
//! retry loop needs.

use crate::memory::{DeviceMemory, DeviceValue};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Number of devices with an installed fault injector. Mirrors the
/// recording and tracing gate in `instrument`: when zero, every fault hook
/// is one relaxed load.
static FAULTY_DEVICES: AtomicUsize = AtomicUsize::new(0);

/// True when any device has fault injection installed (the cheap global gate
/// the memory/exec hooks check before touching per-device state).
#[inline]
pub(crate) fn faults_active() -> bool {
    FAULTY_DEVICES.load(Ordering::Relaxed) > 0
}

/// Configuration of the fault injector: a seed plus per-kind rates.
///
/// All rates are probabilities in `[0, 1]`. Launch-scoped rates
/// (`ecc_single_rate`, `ecc_double_rate`, `launch_failure_rate`,
/// `stall_rate`, `dropped_atomic_rate`) are evaluated once per kernel launch;
/// `alloc_failure_rate` is evaluated once per allocation. In a launch where
/// dropped atomics are armed, roughly one in [`FaultConfig::ATOMIC_SELECT`]
/// individual atomics is lost.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault decision; same seed ⇒ same faults.
    pub seed: u64,
    /// Per-launch probability of a corrected single-bit ECC event.
    pub ecc_single_rate: f64,
    /// Per-launch probability of an uncorrectable double-bit flip.
    pub ecc_double_rate: f64,
    /// Launches before an ECC event matures for [`DeviceMemory::drain_faults`]
    /// (the scrubber's detection latency). [`DeviceMemory::scrub_faults`]
    /// ignores this and forces detection.
    pub detection_latency: u64,
    /// Per-launch probability that the launch fails (kernel never runs).
    pub launch_failure_rate: f64,
    /// Per-allocation probability of a spurious out-of-memory failure.
    pub alloc_failure_rate: f64,
    /// Per-launch probability of a stream stall (hung kernel).
    pub stall_rate: f64,
    /// Dead time a stalled launch spends hung, in microseconds.
    pub stall_us: f64,
    /// Per-launch probability that the launch loses atomics.
    pub dropped_atomic_rate: f64,
}

impl FaultConfig {
    /// In an atomic-drop-armed launch, one in this many atomics is lost.
    pub const ATOMIC_SELECT: u64 = 1024;

    /// A quiet injector: installed but with every rate at zero. Useful to
    /// verify that the instrumented path is bit-exact with the plain one.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            ecc_single_rate: 0.0,
            ecc_double_rate: 0.0,
            detection_latency: 0,
            launch_failure_rate: 0.0,
            alloc_failure_rate: 0.0,
            stall_rate: 0.0,
            stall_us: 0.0,
            dropped_atomic_rate: 0.0,
        }
    }

    /// All five fault kinds enabled at the same `rate`, with a short ECC
    /// detection latency — the chaos-harness schedule.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            ecc_single_rate: rate,
            ecc_double_rate: rate,
            detection_latency: 2,
            launch_failure_rate: rate,
            alloc_failure_rate: rate,
            stall_rate: rate,
            stall_us: 5_000.0,
            dropped_atomic_rate: rate,
        }
    }

    /// The same schedule re-seeded for one device of a multi-device fleet, so
    /// devices fault independently but each deterministically.
    pub fn for_device(&self, device_index: usize) -> Self {
        FaultConfig {
            seed: mix(self.seed ^ (device_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..self.clone()
        }
    }
}

/// One injected fault, latched for the host to observe.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Single-bit ECC event: corrected by hardware, data unaffected.
    EccSingle {
        /// Launch during which the flip occurred.
        launch: u64,
        /// Device address of the affected word.
        addr: u64,
    },
    /// Double-bit ECC event: uncorrectable; reads of `addr` return corrupted
    /// bits until the memory is scrubbed.
    EccDouble {
        /// Launch during which the flip occurred.
        launch: u64,
        /// Device address of the poisoned word.
        addr: u64,
    },
    /// The kernel launch was dropped: the kernel never ran, so output buffers
    /// keep their pre-launch contents.
    LaunchFailure {
        /// The failed launch.
        launch: u64,
    },
    /// An allocation spuriously failed (reported as `OutOfMemory` to the
    /// caller; this event lets the host tell injected failures from genuine
    /// capacity exhaustion).
    AllocFailure {
        /// Allocation counter value at the failure.
        alloc: u64,
        /// Bytes the failed allocation requested.
        requested: usize,
    },
    /// The launch hung for `stall_us` before completing (watchdog territory).
    StreamStall {
        /// The stalled launch.
        launch: u64,
        /// Dead time in microseconds.
        stall_us: f64,
    },
    /// An acknowledged `atomicAdd` transaction was lost.
    DroppedAtomic {
        /// Launch during which the atomic was dropped.
        launch: u64,
        /// Device address the atomic targeted.
        addr: u64,
    },
}

impl FaultEvent {
    /// True when the fault can have corrupted kernel output: the result of
    /// the affected attempt must be discarded.
    pub fn is_corrupting(&self) -> bool {
        matches!(
            self,
            FaultEvent::EccDouble { .. }
                | FaultEvent::LaunchFailure { .. }
                | FaultEvent::DroppedAtomic { .. }
        )
    }

    /// Deterministic ordering key: events latched from parallel blocks are
    /// sorted by this before being exposed.
    fn sort_key(&self) -> (u64, u8, u64) {
        match *self {
            FaultEvent::EccSingle { launch, addr } => (launch, 0, addr),
            FaultEvent::EccDouble { launch, addr } => (launch, 1, addr),
            FaultEvent::LaunchFailure { launch } => (launch, 2, 0),
            FaultEvent::AllocFailure { alloc, requested } => (alloc, 3, requested as u64),
            FaultEvent::StreamStall { launch, .. } => (launch, 4, 0),
            FaultEvent::DroppedAtomic { launch, addr } => (launch, 5, addr),
        }
    }

    /// Short human-readable kind name (for reports and logs).
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultEvent::EccSingle { .. } => "ecc-single",
            FaultEvent::EccDouble { .. } => "ecc-double",
            FaultEvent::LaunchFailure { .. } => "launch-failure",
            FaultEvent::AllocFailure { .. } => "alloc-failure",
            FaultEvent::StreamStall { .. } => "stream-stall",
            FaultEvent::DroppedAtomic { .. } => "dropped-atomic",
        }
    }
}

/// An armed uncorrectable flip: reads of `addr` XOR `mask` into the value's
/// bit pattern until scrubbed.
#[derive(Debug, Clone)]
struct ActiveFlip {
    addr: u64,
    mask: u32,
}

/// Injector bookkeeping, held under one mutex per device memory.
#[derive(Debug)]
pub(crate) struct FaultState {
    config: FaultConfig,
    /// Launches begun on this device since installation.
    launches: u64,
    /// Allocations attempted since installation.
    allocs: u64,
    /// `f32` value regions eligible for bit flips (`base → bytes`).
    value_regions: BTreeMap<u64, usize>,
    /// Armed uncorrectable flips.
    flips: Vec<ActiveFlip>,
    /// Latched events: `(detect_at_launch, event)`.
    pending: Vec<(u64, FaultEvent)>,
}

/// Per-memory fault slot: the state under a mutex plus lock-free fast flags
/// consulted on the access hot paths.
#[derive(Debug)]
pub(crate) struct FaultCell {
    /// `Some` while an injector is installed on this memory.
    pub(crate) state: Mutex<Option<FaultState>>,
    /// Number of armed flips (read path skips the lock when zero).
    pub(crate) flips_armed: AtomicUsize,
    /// True while the current launch drops atomics.
    pub(crate) atomics_armed: AtomicBool,
}

impl FaultCell {
    pub(crate) fn new() -> Self {
        FaultCell {
            state: Mutex::new(None),
            flips_armed: AtomicUsize::new(0),
            atomics_armed: AtomicBool::new(false),
        }
    }
}

/// SplitMix64 finalizer: the bijective mixer every fault decision hashes
/// through.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pure decision: does the event tagged `tag` fire at counter `n` (plus an
/// optional extra discriminator) under `rate`?
fn decide(seed: u64, tag: u64, n: u64, extra: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let h = mix(seed ^ mix(tag ^ mix(n ^ mix(extra))));
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

const TAG_ECC_SINGLE: u64 = 0x5EC0;
const TAG_ECC_DOUBLE: u64 = 0xD0B1;
const TAG_LAUNCH: u64 = 0x1A0C;
const TAG_ALLOC: u64 = 0xA110;
const TAG_STALL: u64 = 0x57A1;
const TAG_ATOMIC_ARM: u64 = 0xA70A;
const TAG_ATOMIC_PICK: u64 = 0xA70B;
const TAG_TARGET: u64 = 0x7A26;

impl FaultState {
    /// Deterministically picks a word address (and flip mask) inside the
    /// registered value regions. Returns `None` when no region exists.
    fn pick_flip_target(&self, launch: u64, tag: u64) -> Option<(u64, u32)> {
        if self.value_regions.is_empty() {
            return None;
        }
        let h = mix(self.config.seed ^ mix(TAG_TARGET ^ mix(tag ^ mix(launch))));
        let region = (h % self.value_regions.len() as u64) as usize;
        let (&base, &bytes) = self.value_regions.iter().nth(region)?;
        let words = (bytes / 4).max(1) as u64;
        let word = mix(h) % words;
        let bit_a = (mix(h ^ 0x1) % 32) as u32;
        let mut bit_b = (mix(h ^ 0x2) % 32) as u32;
        if bit_b == bit_a {
            bit_b = (bit_a + 1) % 32;
        }
        Some((base + word * 4, (1 << bit_a) | (1 << bit_b)))
    }
}

impl DeviceMemory {
    /// Installs (or replaces) a fault injector on this memory. Counters,
    /// armed flips and latched events are reset. Flips only target `f32`
    /// buffers allocated *after* installation, so install the injector before
    /// the workload allocates.
    pub fn install_faults(&self, config: FaultConfig) {
        let cell = self.fault_cell();
        let mut guard = cell.state.lock();
        if guard.is_none() {
            FAULTY_DEVICES.fetch_add(1, Ordering::Relaxed);
        }
        cell.flips_armed.store(0, Ordering::Relaxed);
        cell.atomics_armed.store(false, Ordering::Relaxed);
        *guard = Some(FaultState {
            config,
            launches: 0,
            allocs: 0,
            value_regions: BTreeMap::new(),
            flips: Vec::new(),
            pending: Vec::new(),
        });
    }

    /// Removes the fault injector; all fault bookkeeping is discarded and the
    /// hot paths return to the zero-cost disabled gate.
    pub fn clear_faults(&self) {
        let cell = self.fault_cell();
        let mut guard = cell.state.lock();
        if guard.take().is_some() {
            FAULTY_DEVICES.fetch_sub(1, Ordering::Relaxed);
        }
        cell.flips_armed.store(0, Ordering::Relaxed);
        cell.atomics_armed.store(false, Ordering::Relaxed);
    }

    /// True when a fault injector is installed on this memory.
    pub fn faults_installed(&self) -> bool {
        self.fault_cell().state.lock().is_some()
    }

    /// Reports *matured* latched events (those whose detection latency has
    /// elapsed) in deterministic order and removes them — the analog of
    /// polling the driver's ECC/Xid error log. Immature events stay latched.
    pub fn drain_faults(&self) -> Vec<FaultEvent> {
        let cell = self.fault_cell();
        let mut guard = cell.state.lock();
        let Some(state) = guard.as_mut() else {
            return Vec::new();
        };
        let now = state.launches;
        let mut matured = Vec::new();
        state.pending.retain(|(detect_at, event)| {
            if *detect_at <= now {
                matured.push(event.clone());
                false
            } else {
                true
            }
        });
        matured.sort_by_key(FaultEvent::sort_key);
        matured
    }

    /// Forces full detection: returns *all* latched events (matured or not)
    /// in deterministic order, clears them, and repairs armed flips so
    /// subsequent reads are clean. This is the integrity barrier a retry loop
    /// runs after every attempt: an empty scrub proves the attempt ran
    /// fault-free.
    pub fn scrub_faults(&self) -> Vec<FaultEvent> {
        let cell = self.fault_cell();
        let mut guard = cell.state.lock();
        let Some(state) = guard.as_mut() else {
            return Vec::new();
        };
        state.flips.clear();
        cell.flips_armed.store(0, Ordering::Relaxed);
        let mut events: Vec<FaultEvent> = state.pending.drain(..).map(|(_, e)| e).collect();
        events.sort_by_key(FaultEvent::sort_key);
        events
    }

    /// Hook: called at the top of every kernel launch while injection is
    /// active. Advances the launch counter, arms this launch's faults, and
    /// returns `true` when the launch itself fails (the kernel must not run).
    pub(crate) fn fault_launch_begin(&self) -> bool {
        let cell = self.fault_cell();
        let mut guard = cell.state.lock();
        let Some(state) = guard.as_mut() else {
            return false;
        };
        let launch = state.launches;
        state.launches += 1;
        let seed = state.config.seed;
        let latency = state.config.detection_latency;
        if decide(
            seed,
            TAG_ECC_SINGLE,
            launch,
            0,
            state.config.ecc_single_rate,
        ) {
            if let Some((addr, _)) = state.pick_flip_target(launch, TAG_ECC_SINGLE) {
                state
                    .pending
                    .push((launch + latency, FaultEvent::EccSingle { launch, addr }));
            }
        }
        if decide(
            seed,
            TAG_ECC_DOUBLE,
            launch,
            0,
            state.config.ecc_double_rate,
        ) {
            if let Some((addr, mask)) = state.pick_flip_target(launch, TAG_ECC_DOUBLE) {
                state.flips.push(ActiveFlip { addr, mask });
                cell.flips_armed.store(state.flips.len(), Ordering::Relaxed);
                state
                    .pending
                    .push((launch + latency, FaultEvent::EccDouble { launch, addr }));
            }
        }
        if decide(seed, TAG_STALL, launch, 0, state.config.stall_rate) {
            let stall_us = state.config.stall_us;
            state
                .pending
                .push((launch, FaultEvent::StreamStall { launch, stall_us }));
        }
        let atomics = decide(
            seed,
            TAG_ATOMIC_ARM,
            launch,
            0,
            state.config.dropped_atomic_rate,
        );
        cell.atomics_armed.store(atomics, Ordering::Relaxed);
        if decide(
            seed,
            TAG_LAUNCH,
            launch,
            0,
            state.config.launch_failure_rate,
        ) {
            state
                .pending
                .push((launch, FaultEvent::LaunchFailure { launch }));
            return true;
        }
        false
    }

    /// Hook: per-allocation failure decision. Latches an
    /// [`FaultEvent::AllocFailure`] and returns `true` when the allocation
    /// must spuriously fail.
    pub(crate) fn fault_alloc(&self, requested: usize) -> bool {
        let cell = self.fault_cell();
        let mut guard = cell.state.lock();
        let Some(state) = guard.as_mut() else {
            return false;
        };
        let alloc = state.allocs;
        state.allocs += 1;
        if decide(
            state.config.seed,
            TAG_ALLOC,
            alloc,
            requested as u64,
            state.config.alloc_failure_rate,
        ) {
            let detect_at = state.launches;
            state
                .pending
                .push((detect_at, FaultEvent::AllocFailure { alloc, requested }));
            return true;
        }
        false
    }

    /// Hook: registers a freshly allocated `f32` region as a flip target.
    pub(crate) fn fault_register_region(&self, base: u64, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let cell = self.fault_cell();
        if let Some(state) = cell.state.lock().as_mut() {
            state.value_regions.insert(base, bytes);
        }
    }
}

/// Hook (memory drop path): a device memory destroyed with an injector still
/// installed must release its claim on the global gate.
pub(crate) fn device_uninstalled() {
    FAULTY_DEVICES.fetch_sub(1, Ordering::Relaxed);
}

/// Hook (buffer drop path): forgets a freed region and disarms flips that
/// targeted it — the backing memory is gone; latched events stay observed.
pub(crate) fn forget_region(cell: &FaultCell, base: u64, bytes: usize) {
    if bytes == 0 {
        return;
    }
    if let Some(state) = cell.state.lock().as_mut() {
        if state.value_regions.remove(&base).is_some() {
            let end = base + bytes as u64;
            state.flips.retain(|f| f.addr < base || f.addr >= end);
            cell.flips_armed.store(state.flips.len(), Ordering::Relaxed);
        }
    }
}

/// Hook (read path): applies any armed flip on the word at `addr` to a
/// value's bit pattern. Only reached when `flips_armed > 0`.
pub(crate) fn corrupt_value<T: DeviceValue>(cell: &FaultCell, addr: u64, value: T) -> T {
    let guard = cell.state.lock();
    let Some(state) = guard.as_ref() else {
        return value;
    };
    let mut out = value;
    for flip in &state.flips {
        if flip.addr == addr {
            out = out.xor_bits(flip.mask);
        }
    }
    out
}

/// Hook (atomic path): in an atomic-armed launch, decides whether this
/// particular atomic transaction is lost. Deterministic in
/// `(launch, addr, value)`, so the decision is independent of host-thread
/// interleaving. The narration/record event has already fired when this runs:
/// the model is a transaction the hardware acknowledged but never landed.
pub(crate) fn drop_atomic(cell: &FaultCell, addr: u64, value_bits: u32) -> bool {
    let mut guard = cell.state.lock();
    let Some(state) = guard.as_mut() else {
        return false;
    };
    let launch = state.launches.wrapping_sub(1);
    let h =
        mix(state.config.seed ^ mix(TAG_ATOMIC_PICK ^ mix(launch ^ mix(addr ^ value_bits as u64))));
    if h.is_multiple_of(FaultConfig::ATOMIC_SELECT) {
        state
            .pending
            .push((launch, FaultEvent::DroppedAtomic { launch, addr }));
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GpuDevice;

    fn forced(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            ..FaultConfig::quiet(seed)
        }
    }

    #[test]
    fn quiet_injector_is_bit_exact_with_disabled_path() {
        let run = |inject: bool| {
            let device = GpuDevice::titan_x();
            if inject {
                device.memory().install_faults(FaultConfig::quiet(7));
            }
            let data = device.memory().alloc_from_slice(&[1.5f32; 256]).unwrap();
            let out = device.memory().alloc_zeroed::<f32>(8).unwrap();
            let stats = device.launch((8, 1), 32, |ctx| {
                ctx.begin_warp();
                let x = ctx.block_x();
                let lanes: Vec<(usize, f32)> = (0..32).map(|l| (x, data.get(x * 32 + l))).collect();
                ctx.atomic_add_f32(&out, &lanes);
            });
            (out.to_vec(), stats.time_us.to_bits())
        };
        let plain = run(false);
        let quiet = run(true);
        assert_eq!(plain.0, quiet.0);
        assert_eq!(plain.1, quiet.1);
    }

    #[test]
    fn double_bit_flip_corrupts_reads_until_scrubbed() {
        let device = GpuDevice::titan_x();
        let mut config = forced(42);
        config.ecc_double_rate = 1.0;
        device.memory().install_faults(config);
        let data = device.memory().alloc_from_slice(&[2.0f32; 64]).unwrap();
        device.launch((1, 1), 32, |ctx| ctx.begin_warp());
        let corrupted = data.to_vec();
        assert!(
            corrupted.iter().any(|v| v.to_bits() != 2.0f32.to_bits()),
            "no element was corrupted"
        );
        let events = device.memory().scrub_faults();
        assert!(events
            .iter()
            .any(|e| matches!(e, FaultEvent::EccDouble { .. })));
        assert!(
            data.to_vec().iter().all(|&v| v == 2.0),
            "scrub did not repair"
        );
    }

    #[test]
    fn bulk_downloads_keep_armed_flips() {
        let device = GpuDevice::titan_x();
        let mut config = forced(42);
        config.ecc_double_rate = 1.0;
        device.memory().install_faults(config);
        let data = device.memory().alloc_from_slice(&[2.0f32; 64]).unwrap();
        device.launch((1, 1), 32, |ctx| ctx.begin_warp());
        let bits = |values: Vec<f32>| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let checked = bits((0..64).map(|i| data.get(i)).collect());
        assert!(
            checked.iter().any(|&b| b != 2.0f32.to_bits()),
            "no element was corrupted"
        );
        assert_eq!(bits(data.to_vec()), checked);
        assert_eq!(bits(data.into_vec()), checked);
    }

    #[test]
    fn into_vec_forgets_the_fault_region_like_drop() {
        // Flips armed or not, a consumed buffer leaves no value region and
        // no armed flip behind, as a dropped one does.
        let freed = |ecc_double_rate: f64, consume: bool| {
            let device = GpuDevice::titan_x();
            let mut config = forced(42);
            config.ecc_double_rate = ecc_double_rate;
            device.memory().install_faults(config);
            let data = device.memory().alloc_from_slice(&[2.0f32; 64]).unwrap();
            device.launch((1, 1), 32, |ctx| ctx.begin_warp());
            let cell = device.memory().fault_cell();
            let regions = || cell.state.lock().as_ref().unwrap().value_regions.len();
            let armed = || cell.flips_armed.load(Ordering::Relaxed);
            assert_eq!(regions(), 1);
            assert_eq!(armed() > 0, ecc_double_rate > 0.0);
            if consume {
                assert_eq!(data.into_vec().len(), 64);
            } else {
                drop(data);
            }
            (regions(), armed())
        };
        for rate in [0.0, 1.0] {
            assert_eq!(freed(rate, false), (0, 0));
            assert_eq!(freed(rate, true), (0, 0));
        }
    }

    #[test]
    fn single_bit_events_are_corrected_but_latched() {
        let device = GpuDevice::titan_x();
        let mut config = forced(9);
        config.ecc_single_rate = 1.0;
        device.memory().install_faults(config);
        let data = device.memory().alloc_from_slice(&[3.0f32; 16]).unwrap();
        device.launch((1, 1), 32, |ctx| ctx.begin_warp());
        assert!(
            data.to_vec().iter().all(|&v| v == 3.0),
            "single-bit is corrected"
        );
        let events = device.memory().scrub_faults();
        assert!(events
            .iter()
            .any(|e| matches!(e, FaultEvent::EccSingle { .. })));
        assert!(!events[0].is_corrupting());
    }

    #[test]
    fn launch_failure_skips_the_kernel() {
        let device = GpuDevice::titan_x();
        let mut config = forced(5);
        config.launch_failure_rate = 1.0;
        device.memory().install_faults(config);
        let out = device.memory().alloc_zeroed::<f32>(4).unwrap();
        let stats = device.launch((4, 1), 32, |_ctx| {
            // SAFETY: never runs — the launch is injected to fail.
            unsafe { out.write(0, 1.0) };
        });
        assert_eq!(stats.blocks, 0);
        assert_eq!(out.to_vec(), vec![0.0; 4]);
        let events = device.memory().scrub_faults();
        assert!(matches!(events[0], FaultEvent::LaunchFailure { launch: 0 }));
        assert!(events[0].is_corrupting());
    }

    #[test]
    fn a_dropped_launch_reaches_both_logs_with_no_blocks() {
        let device = GpuDevice::titan_x();
        let mut config = forced(5);
        config.launch_failure_rate = 1.0;
        device.memory().install_faults(config);
        let out = device.memory().alloc_zeroed::<f32>(4).unwrap();
        device.start_recording();
        device.start_tracing();
        device.launch((4, 1), 32, |ctx| ctx.write_global(&[out.addr(0)]));
        let recorded = device.stop_recording();
        let traced = device.stop_tracing();
        assert_eq!(recorded.launches.len(), 1);
        assert_eq!(recorded.launches[0].grid, (4, 1));
        assert!(recorded.launches[0].blocks.is_empty());
        assert!(recorded.launches[0]
            .allocations
            .contains(&(out.addr(0), 4 * 4)));
        assert_eq!(traced.launches.len(), 1);
        assert!(traced.launches[0].dropped);
    }

    #[test]
    fn alloc_failures_surface_as_oom_plus_event() {
        let device = GpuDevice::titan_x();
        let mut config = forced(11);
        config.alloc_failure_rate = 1.0;
        device.memory().install_faults(config);
        let err = device.memory().alloc_zeroed::<f32>(128).unwrap_err();
        assert_eq!(err.requested, 512);
        let events = device.memory().scrub_faults();
        assert!(matches!(
            events[0],
            FaultEvent::AllocFailure {
                alloc: 0,
                requested: 512
            }
        ));
        assert_eq!(
            device.memory().live_bytes(),
            0,
            "failed alloc left bytes live"
        );
    }

    #[test]
    fn dropped_atomics_lose_writes_and_latch() {
        let device = GpuDevice::titan_x();
        let mut config = forced(3);
        config.dropped_atomic_rate = 1.0;
        device.memory().install_faults(config);
        let out = device.memory().alloc_zeroed::<f32>(1).unwrap();
        // Enough distinct (addr, value) atomics that ~1/1024 selection drops
        // at least one with overwhelming probability.
        device.launch((64, 1), 32, |ctx| {
            ctx.begin_warp();
            let lanes: Vec<(usize, f32)> = (0..32)
                .map(|l| (0usize, (ctx.block_x() * 32 + l) as f32 + 0.25))
                .collect();
            ctx.atomic_add_f32(&out, &lanes);
        });
        let expected: f32 = (0..2048).map(|i| i as f32 + 0.25).sum();
        assert!(out.get(0) < expected, "no atomic was dropped");
        let events = device.memory().scrub_faults();
        assert!(events
            .iter()
            .any(|e| matches!(e, FaultEvent::DroppedAtomic { .. })));
    }

    #[test]
    fn stream_stalls_latch_their_dead_time() {
        let device = GpuDevice::titan_x();
        let mut config = forced(21);
        config.stall_rate = 1.0;
        config.stall_us = 777.0;
        device.memory().install_faults(config);
        device.launch((1, 1), 32, |ctx| ctx.begin_warp());
        let events = device.memory().drain_faults();
        assert!(events
            .iter()
            .any(|e| matches!(e, FaultEvent::StreamStall { stall_us, .. } if *stall_us == 777.0)));
    }

    #[test]
    fn detection_latency_delays_drain_but_not_scrub() {
        let device = GpuDevice::titan_x();
        let mut config = forced(17);
        config.ecc_double_rate = 1.0;
        config.detection_latency = 3;
        device.memory().install_faults(config);
        let _data = device.memory().alloc_from_slice(&[1.0f32; 8]).unwrap();
        device.launch((1, 1), 32, |ctx| ctx.begin_warp());
        assert!(
            device.memory().drain_faults().is_empty(),
            "event matured too early"
        );
        for _ in 0..3 {
            device.launch((1, 1), 32, |ctx| ctx.begin_warp());
        }
        // Three more launches elapsed (each may latch its own flip); the
        // first launch's event has now matured.
        let drained = device.memory().drain_faults();
        assert!(drained
            .iter()
            .any(|e| matches!(e, FaultEvent::EccDouble { launch: 0, .. })));
        assert!(!device.memory().scrub_faults().is_empty() || !drained.is_empty());
    }

    #[test]
    fn same_seed_same_faults_across_runs() {
        let run = || {
            let device = GpuDevice::titan_x();
            // Allocate before installing so these allocations cannot fail;
            // the scratch allocations inside the loop absorb the injected
            // alloc failures and register flip-target regions.
            let data = device.memory().alloc_from_slice(&[1.0f32; 512]).unwrap();
            let out = device.memory().alloc_zeroed::<f32>(4).unwrap();
            device
                .memory()
                .install_faults(FaultConfig::chaos(2017, 0.3));
            for _ in 0..20 {
                let _ = device.memory().alloc_zeroed::<f32>(64);
                device.launch((4, 1), 32, |ctx| {
                    ctx.begin_warp();
                    let lanes: Vec<(usize, f32)> = (0..32).map(|l| (l % 4, data.get(l))).collect();
                    ctx.atomic_add_f32(&out, &lanes);
                });
            }
            device.memory().scrub_faults()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "chaos schedule injected nothing");
        assert_eq!(a, b, "fault schedule is not deterministic");
    }

    #[test]
    fn clear_faults_restores_the_disabled_path() {
        let device = GpuDevice::titan_x();
        let mut config = forced(1);
        config.launch_failure_rate = 1.0;
        device.memory().install_faults(config);
        assert!(device.memory().faults_installed());
        device.memory().clear_faults();
        assert!(!device.memory().faults_installed());
        let out = device.memory().alloc_zeroed::<f32>(1).unwrap();
        let stats = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            // SAFETY: single block writes a single element.
            unsafe { out.write(0, 4.0) };
        });
        assert_eq!(stats.blocks, 1);
        assert_eq!(out.get(0), 4.0);
        assert!(device.memory().scrub_faults().is_empty());
    }
}
