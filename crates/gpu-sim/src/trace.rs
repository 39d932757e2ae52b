//! Structured event/span tracing for the profiling layer.
//!
//! When a [`GpuDevice`](crate::GpuDevice) is put into tracing mode
//! ([`GpuDevice::start_tracing`](crate::GpuDevice::start_tracing)), every
//! launch captures a [`LaunchTrace`]: per-block memory events (transactions,
//! cache probes, atomics — emitted by the [`BlockCtx`](crate::BlockCtx)
//! narration methods) plus per-wave spans whose timestamps replicate the
//! analytic timing fold of [`KernelStats`](crate::KernelStats) exactly, so a
//! trace is consistent with the simulated duration bit for bit.
//!
//! The tracer follows the same two design rules as the sanitizer recorder
//! ([`record`](crate::record)) and the fault injector
//! ([`faults`](crate::faults)):
//!
//! * **zero-cost when disabled** — every hook is behind a single relaxed
//!   atomic load (`tracing_active()`); a non-tracing run executes the exact
//!   same instruction stream as an uninstrumented one, so tracing can never
//!   perturb results or simulated timings;
//! * **deterministic regardless of host interleaving** — events are
//!   collected per block on the executing pool thread (a thread-local
//!   collector, no shared mutable state) and reassembled in x-major launch
//!   order, and all timestamps come from the simulated timeline, never the
//!   wall clock. Two runs of the same seed produce byte-identical traces.
//!
//! Export goes through [`ChromeTrace`], a hand-rolled Chrome-trace/Perfetto
//! JSON builder (the dependency set has no JSON library, and hand-formatting
//! keeps the bytes reproducible), and [`KernelCounters`], the per-kernel
//! counter report (achieved vs. peak bandwidth, coalescing efficiency, cache
//! hit rate, atomic serialization, effective-warp occupancy).

use crate::config::DeviceConfig;
use crate::stats::BlockStats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global count of devices currently in tracing mode. Narration hooks consult
/// this first so that non-tracing runs pay one relaxed atomic load and
/// nothing else.
static TRACING_DEVICES: AtomicUsize = AtomicUsize::new(0);

/// True if any device is currently tracing (cheap global gate).
#[inline]
pub(crate) fn tracing_active() -> bool {
    TRACING_DEVICES.load(Ordering::Relaxed) > 0
}

pub(crate) fn tracing_device_added() {
    TRACING_DEVICES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn tracing_device_removed() {
    TRACING_DEVICES.fetch_sub(1, Ordering::Relaxed);
}

/// What kind of memory behaviour a [`MemoryEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryEventKind {
    /// Warp-wide global read (`read_global`, `read_global_ws`).
    GlobalRead,
    /// Warp-wide global write (`write_global`, `write_global_shared`).
    GlobalWrite,
    /// Contiguous streaming read (`read_global_range`,
    /// `read_global_range_l2`).
    StreamRead,
    /// Contiguous streaming write (`write_global_range`).
    StreamWrite,
    /// Read-only data cache probe batch (`read_readonly`,
    /// `read_readonly_ws`).
    CacheRead,
    /// Warp-wide `atomicAdd` (`atomic_add_f32`), including its write
    /// traffic.
    Atomic,
}

impl MemoryEventKind {
    /// Short stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            MemoryEventKind::GlobalRead => "global_read",
            MemoryEventKind::GlobalWrite => "global_write",
            MemoryEventKind::StreamRead => "stream_read",
            MemoryEventKind::StreamWrite => "stream_write",
            MemoryEventKind::CacheRead => "cache_read",
            MemoryEventKind::Atomic => "atomic",
        }
    }
}

/// One narrated memory operation observed while tracing: the counter deltas
/// it caused, plus the coalescing baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryEvent {
    /// Warp the operation belongs to.
    pub warp: u32,
    /// What the operation was.
    pub kind: MemoryEventKind,
    /// Global-memory transactions the operation issued (post-coalescing).
    pub transactions: u64,
    /// Minimum transactions the operation's payload could have needed if
    /// perfectly coalesced (`ceil(bytes / transaction_bytes)`). Streaming
    /// ranges are coalesced by construction, so ideal equals actual there.
    pub ideal_transactions: u64,
    /// DRAM bytes the operation moved.
    pub dram_bytes: u64,
    /// Read-only cache hits (cache probes only).
    pub cache_hits: u64,
    /// Read-only cache misses (cache probes only).
    pub cache_misses: u64,
    /// Intra-warp atomic lanes issued (atomics only).
    pub atomic_lanes: u64,
    /// Worst per-element multiplicity of the atomic batch — the
    /// serialization factor the warp paid (atomics only, else 0).
    pub atomic_multiplicity: u64,
}

/// All memory events of one thread block, in program order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTrace {
    /// Linearized block index (x-major, matching launch order).
    pub block: usize,
    /// Warps that executed in the block (`begin_warp` calls).
    pub warps: u64,
    /// The block's memory events.
    pub events: Vec<MemoryEvent>,
}

/// One scheduling wave of a launch, on the simulated timeline.
///
/// The fields replicate the wave fold of
/// [`KernelStats::from_blocks_with_concurrency`](crate::KernelStats::from_blocks_with_concurrency):
/// `dur_us = max(compute_us, memory_us)` and consecutive waves abut, so the
/// last wave's end equals the kernel's simulated duration.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveTrace {
    /// Start of the wave in microseconds from launch start (the first wave
    /// starts after the fixed launch overhead).
    pub start_us: f64,
    /// Wave duration (`max(compute_us, memory_us)`).
    pub dur_us: f64,
    /// Compute bound: slowest resident block.
    pub compute_us: f64,
    /// Memory bound: wave DRAM bytes over device bandwidth.
    pub memory_us: f64,
    /// Index of the first block scheduled in this wave.
    pub first_block: usize,
    /// Number of blocks in this wave.
    pub blocks: usize,
}

/// Everything traced for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    /// Grid shape of the launch.
    pub grid: (usize, usize),
    /// Threads per block.
    pub block_threads: usize,
    /// Concurrently resident blocks (wave width).
    pub concurrent: usize,
    /// Warps the launch configuration asked for
    /// (`blocks × block_threads / warp_size`).
    pub launched_warps: u64,
    /// Simulated duration, identical to the launch's
    /// [`KernelStats::time_us`](crate::KernelStats::time_us).
    pub time_us: f64,
    /// True when an injected launch failure dropped the kernel before any
    /// block ran (only the launch overhead was charged).
    pub dropped: bool,
    /// Per-block event traces, in linear block order.
    pub blocks: Vec<BlockTrace>,
    /// Wave spans on the simulated timeline.
    pub waves: Vec<WaveTrace>,
}

impl LaunchTrace {
    /// Assembles a launch trace from the per-block stats and event traces,
    /// replaying the exact wave fold of the timing model so trace timestamps
    /// agree with the returned [`KernelStats`](crate::KernelStats) bit for
    /// bit.
    pub(crate) fn assemble(
        grid: (usize, usize),
        block_threads: usize,
        concurrent: usize,
        stats: &[BlockStats],
        blocks: Vec<BlockTrace>,
        device: &DeviceConfig,
    ) -> Self {
        let concurrent = concurrent.max(1);
        let mut waves = Vec::new();
        let mut cursor = device.launch_overhead_us;
        for (index, wave) in stats.chunks(concurrent).enumerate() {
            let compute = wave
                .iter()
                .map(|b| b.compute_time_us(device))
                .fold(0.0f64, f64::max);
            let bytes: u64 = wave.iter().map(|b| b.dram_bytes).sum();
            let memory = bytes as f64 / (device.mem_bandwidth_gbs * 1e3);
            let dur = compute.max(memory);
            waves.push(WaveTrace {
                start_us: cursor,
                dur_us: dur,
                compute_us: compute,
                memory_us: memory,
                first_block: index * concurrent,
                blocks: wave.len(),
            });
            cursor += dur;
        }
        let total_blocks = grid.0 * grid.1;
        LaunchTrace {
            grid,
            block_threads,
            concurrent,
            launched_warps: (total_blocks * block_threads / device.warp_size.max(1)) as u64,
            time_us: if stats.is_empty() {
                device.launch_overhead_us
            } else {
                cursor
            },
            dropped: false,
            blocks,
            waves,
        }
    }

    /// A launch dropped by an injected launch failure: no blocks ran, only
    /// the launch overhead was charged.
    pub(crate) fn dropped(
        grid: (usize, usize),
        block_threads: usize,
        concurrent: usize,
        device: &DeviceConfig,
    ) -> Self {
        LaunchTrace {
            grid,
            block_threads,
            concurrent,
            launched_warps: 0,
            time_us: device.launch_overhead_us,
            dropped: true,
            blocks: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// Per-kernel counters aggregated over the whole launch.
    pub fn counters(&self) -> KernelCounters {
        let mut c = KernelCounters {
            time_us: self.time_us,
            launches: 1,
            blocks: self.blocks.len() as u64,
            waves: self.waves.len() as u64,
            launched_warps: self.launched_warps,
            ..KernelCounters::default()
        };
        for block in &self.blocks {
            c.active_warps += block.warps;
            for event in &block.events {
                c.transactions += event.transactions;
                c.ideal_transactions += event.ideal_transactions;
                c.max_access_transactions = c.max_access_transactions.max(event.transactions);
                c.dram_bytes += event.dram_bytes;
                c.cache_hits += event.cache_hits;
                c.cache_misses += event.cache_misses;
                c.atomics += event.atomic_lanes;
                if event.kind == MemoryEventKind::Atomic {
                    c.atomic_calls += 1;
                    c.atomic_multiplicity_sum += event.atomic_multiplicity;
                }
            }
        }
        c
    }

    /// Total memory events across all blocks.
    pub fn event_count(&self) -> usize {
        self.blocks.iter().map(|b| b.events.len()).sum()
    }
}

/// Everything traced between `start_tracing` and `stop_tracing`, possibly
/// spanning several launches.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Traced launches, in issue order.
    pub launches: Vec<LaunchTrace>,
}

impl TraceLog {
    /// Total memory events across all launches.
    pub fn event_count(&self) -> usize {
        self.launches.iter().map(|l| l.event_count()).sum()
    }

    /// Counters aggregated over every launch in the log.
    pub fn counters(&self) -> KernelCounters {
        let mut total = KernelCounters::default();
        for launch in &self.launches {
            total.merge(&launch.counters());
        }
        total
    }
}

/// The per-kernel counter report: every quantity the paper's evaluation
/// argues about, derived from the dynamic trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCounters {
    /// Simulated duration in microseconds (summed over merged launches).
    pub time_us: f64,
    /// Number of launches merged into this report.
    pub launches: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Scheduling waves.
    pub waves: u64,
    /// Warps the launch configurations asked for.
    pub launched_warps: u64,
    /// Warps that actually began execution.
    pub active_warps: u64,
    /// Global-memory transactions issued.
    pub transactions: u64,
    /// Minimum transactions if every access were perfectly coalesced.
    pub ideal_transactions: u64,
    /// Largest transaction count of any single warp-wide access.
    pub max_access_transactions: u64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// Read-only cache hits.
    pub cache_hits: u64,
    /// Read-only cache misses.
    pub cache_misses: u64,
    /// Atomic lanes issued.
    pub atomics: u64,
    /// Warp-wide atomic batches issued.
    pub atomic_calls: u64,
    /// Sum over atomic batches of the worst per-element multiplicity.
    pub atomic_multiplicity_sum: u64,
}

impl KernelCounters {
    /// Achieved DRAM bandwidth in GB/s (`dram_bytes / time_us`, matching the
    /// wave model's `memory_us = bytes / (bandwidth × 1e3)`).
    pub fn achieved_gbs(&self) -> f64 {
        if self.time_us <= 0.0 {
            0.0
        } else {
            self.dram_bytes as f64 / self.time_us / 1e3
        }
    }

    /// Fraction of the device's peak bandwidth actually achieved.
    pub fn bandwidth_fraction(&self, device: &DeviceConfig) -> f64 {
        self.achieved_gbs() / device.mem_bandwidth_gbs
    }

    /// Coalescing efficiency: ideal transactions over issued transactions
    /// (1.0 means every access was perfectly coalesced).
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.transactions == 0 {
            1.0
        } else {
            self.ideal_transactions as f64 / self.transactions as f64
        }
    }

    /// Read-only cache hit rate (0 when the cache was unused).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Atomic-conflict serialization factor: the mean worst-lane multiplicity
    /// per warp-wide atomic batch (1.0 means conflict-free).
    pub fn atomic_serialization(&self) -> f64 {
        if self.atomic_calls == 0 {
            1.0
        } else {
            self.atomic_multiplicity_sum as f64 / self.atomic_calls as f64
        }
    }

    /// Effective-warp occupancy: warps that did work over warps launched.
    pub fn occupancy(&self) -> f64 {
        if self.launched_warps == 0 {
            1.0
        } else {
            self.active_warps as f64 / self.launched_warps as f64
        }
    }

    /// Accumulates another report (for multi-launch operations).
    pub fn merge(&mut self, other: &KernelCounters) {
        self.time_us += other.time_us;
        self.launches += other.launches;
        self.blocks += other.blocks;
        self.waves += other.waves;
        self.launched_warps += other.launched_warps;
        self.active_warps += other.active_warps;
        self.transactions += other.transactions;
        self.ideal_transactions += other.ideal_transactions;
        self.max_access_transactions = self
            .max_access_transactions
            .max(other.max_access_transactions);
        self.dram_bytes += other.dram_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.atomics += other.atomics;
        self.atomic_calls += other.atomic_calls;
        self.atomic_multiplicity_sum += other.atomic_multiplicity_sum;
    }
}

/// Per-thread collector installed around one block's kernel closure (same
/// scheme as the sanitizer recorder: one pool thread per block, so no
/// locking, and reassembly in launch order keeps the result deterministic).
struct Collector {
    trace: BlockTrace,
    warp: u32,
    warp_started: bool,
}

thread_local! {
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Installs a fresh collector for `block` on this thread.
pub(crate) fn begin_block(block: usize) {
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(Collector {
            trace: BlockTrace {
                block,
                warps: 0,
                events: Vec::new(),
            },
            warp: 0,
            warp_started: false,
        });
    });
}

/// Removes this thread's collector and returns the block's trace.
pub(crate) fn end_block() -> Option<BlockTrace> {
    CURRENT.with(|current| current.borrow_mut().take().map(|c| c.trace))
}

#[inline]
fn with_collector(f: impl FnOnce(&mut Collector)) {
    CURRENT.with(|current| {
        if let Some(collector) = current.borrow_mut().as_mut() {
            f(collector);
        }
    });
}

/// Advances to the next warp.
pub(crate) fn on_begin_warp() {
    with_collector(|collector| {
        if collector.warp_started {
            collector.warp += 1;
        } else {
            collector.warp_started = true;
        }
        collector.trace.warps += 1;
    });
}

/// Records one memory event attributed to the current warp. No-op unless a
/// collector is installed on this thread.
#[inline]
pub(crate) fn on_memory(mut event: MemoryEvent) {
    with_collector(|collector| {
        event.warp = collector.warp;
        collector.trace.events.push(event);
    });
}

/// Trace-event phases of the Chrome trace-event format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph: "X"`) with a duration.
    Complete,
    /// The opening edge of a nested span (`ph: "B"`).
    Begin,
    /// The closing edge of a nested span (`ph: "E"`).
    End,
    /// A zero-duration instant (`ph: "i"`).
    Instant,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One event of a Chrome trace.
#[derive(Debug, Clone)]
pub struct ChromeEvent {
    /// Event name (shown on the span).
    pub name: String,
    /// Category string.
    pub cat: &'static str,
    /// Phase of the event.
    pub ph: Phase,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete spans only).
    pub dur_us: f64,
    /// Process id (track group — a device, or the request lane).
    pub pid: u64,
    /// Thread id (track — a stream, or one request).
    pub tid: u64,
    /// `args` key/value payload.
    pub args: Vec<(String, String)>,
}

/// A Chrome-trace/Perfetto JSON document under construction.
///
/// The writer is hand-rolled (the vendored dependency set has no JSON
/// library) and formats every float with fixed precision, so the same trace
/// always serializes to the same bytes.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
    metadata: Vec<(u64, String)>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names a process (track group) in the exported trace.
    pub fn name_process(&mut self, pid: u64, name: impl Into<String>) {
        self.metadata.push((pid, name.into()));
    }

    /// Appends a complete span.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        pid: u64,
        tid: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat,
            ph: Phase::Complete,
            ts_us,
            dur_us,
            pid,
            tid,
            args,
        });
    }

    /// Appends the opening edge of a nested span.
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        pid: u64,
        tid: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat,
            ph: Phase::Begin,
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            args,
        });
    }

    /// Appends the closing edge of a nested span.
    pub fn end(&mut self, cat: &'static str, ts_us: f64, pid: u64, tid: u64) {
        self.events.push(ChromeEvent {
            name: String::new(),
            cat,
            ph: Phase::End,
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Appends an instant event.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        pid: u64,
        tid: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat,
            ph: Phase::Instant,
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            args,
        });
    }

    /// The events appended so far, in insertion order.
    pub fn events(&self) -> &[ChromeEvent] {
        &self.events
    }

    /// Checks trace well-formedness: per `(pid, tid)` track, timestamps must
    /// be monotone non-decreasing in serialization order and every `B` must
    /// be closed by a matching `E` (with `E` never underflowing the stack).
    /// Returns the violations found (empty means well-formed).
    pub fn validate(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut order = self.serialization_order();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.events[a], &self.events[b]);
            (ea.pid, ea.tid).cmp(&(eb.pid, eb.tid))
        });
        let mut last: Option<(u64, u64, f64)> = None;
        let mut depth: i64 = 0;
        for index in order {
            let event = &self.events[index];
            match last {
                Some((pid, tid, ts)) if (pid, tid) == (event.pid, event.tid) => {
                    if event.ts_us < ts {
                        violations.push(format!(
                            "track {pid}/{tid}: timestamp {0:.3} before {ts:.3}",
                            event.ts_us
                        ));
                    }
                }
                _ => {
                    if depth != 0 {
                        violations.push(format!("unbalanced spans: depth {depth} at track end"));
                    }
                    depth = 0;
                }
            }
            match event.ph {
                Phase::Begin => depth += 1,
                Phase::End => {
                    depth -= 1;
                    if depth < 0 {
                        violations.push(format!(
                            "track {}/{}: end without begin at {:.3}",
                            event.pid, event.tid, event.ts_us
                        ));
                        depth = 0;
                    }
                }
                Phase::Complete | Phase::Instant => {}
            }
            last = Some((event.pid, event.tid, event.ts_us));
        }
        if depth != 0 {
            violations.push(format!("unbalanced spans: depth {depth} at trace end"));
        }
        violations
    }

    /// The order in which `to_json` serializes events: stable-sorted by
    /// track, then timestamp, with `E` edges sorting after co-timestamped
    /// children so nesting stays balanced.
    fn serialization_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.events[a], &self.events[b]);
            (ea.pid, ea.tid)
                .cmp(&(eb.pid, eb.tid))
                .then(ea.ts_us.total_cmp(&eb.ts_us))
                .then_with(|| {
                    // At equal timestamps: begins first, ends last, so that
                    // zero-length children stay inside their parents.
                    let rank = |ph: Phase| match ph {
                        Phase::Begin => 0,
                        Phase::Complete | Phase::Instant => 1,
                        Phase::End => 2,
                    };
                    rank(ea.ph).cmp(&rank(eb.ph))
                })
                .then(a.cmp(&b))
        });
        order
    }

    /// Serializes to Chrome trace-event JSON (the `traceEvents` array form
    /// Perfetto and `chrome://tracing` load directly). Deterministic:
    /// identical traces produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for &(pid, ref name) in &self.metadata {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        for &index in &self.serialization_order() {
            let event = &self.events[index];
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},",
                escape(&event.name),
                event.cat,
                event.ph.code(),
                event.ts_us
            );
            if event.ph == Phase::Complete {
                let _ = write!(out, "\"dur\":{:.3},", event.dur_us);
            }
            if event.ph == Phase::Instant {
                out.push_str("\"s\":\"t\",");
            }
            let _ = write!(out, "\"pid\":{},\"tid\":{}", event.pid, event.tid);
            if !event.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in event.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escape(key), escape(value));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_derive_ratios() {
        let c = KernelCounters {
            time_us: 10.0,
            dram_bytes: 336_000 * 10,
            transactions: 200,
            ideal_transactions: 100,
            cache_hits: 30,
            cache_misses: 10,
            atomic_calls: 4,
            atomic_multiplicity_sum: 12,
            launched_warps: 8,
            active_warps: 6,
            ..KernelCounters::default()
        };
        let device = DeviceConfig::titan_x();
        assert!((c.achieved_gbs() - 336.0).abs() < 1e-9);
        assert!((c.bandwidth_fraction(&device) - 1.0).abs() < 1e-9);
        assert!((c.coalescing_efficiency() - 0.5).abs() < 1e-12);
        assert!((c.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((c.atomic_serialization() - 3.0).abs() < 1e-12);
        assert!((c.occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_use_neutral_ratios() {
        let c = KernelCounters::default();
        assert_eq!(c.achieved_gbs(), 0.0);
        assert_eq!(c.coalescing_efficiency(), 1.0);
        assert_eq!(c.cache_hit_rate(), 0.0);
        assert_eq!(c.atomic_serialization(), 1.0);
        assert_eq!(c.occupancy(), 1.0);
    }

    #[test]
    fn chrome_trace_json_is_loadable_shape() {
        let mut trace = ChromeTrace::new();
        trace.name_process(0, "device 0");
        trace.begin("req 0", "request", 1.0, 0, 0, vec![]);
        trace.complete(
            "exec",
            "exec",
            1.5,
            2.0,
            0,
            0,
            vec![("tier".into(), "unified".into())],
        );
        trace.instant("admit", "request", 1.0, 0, 0, vec![]);
        trace.end("request", 4.0, 0, 0);
        assert!(trace.validate().is_empty());
        let json = trace.to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("process_name"));
        assert!(json.trim_end().ends_with("}"));
    }

    #[test]
    fn validate_flags_unbalanced_and_backwards_tracks() {
        let mut trace = ChromeTrace::new();
        trace.begin("open", "t", 1.0, 0, 0, vec![]);
        assert!(!trace.validate().is_empty());
        let mut backwards = ChromeTrace::new();
        backwards.instant("b", "t", 5.0, 0, 0, vec![]);
        backwards.instant("a", "t", 2.0, 0, 0, vec![]);
        // Serialization order sorts by timestamp, so this trace is emitted
        // well-formed; an end-before-begin cannot be repaired though.
        assert!(backwards.validate().is_empty());
        let mut underflow = ChromeTrace::new();
        underflow.end("t", 1.0, 0, 0);
        assert!(!underflow.validate().is_empty());
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
