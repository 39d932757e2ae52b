//! Kernel launch machinery: functional block execution plus cost accounting.
//!
//! A kernel is a host closure invoked once per thread block with a
//! [`BlockCtx`]. The closure performs the block's real computation on
//! [`DeviceBuffer`]s (results are bit-useful,
//! validated against sequential references) and *narrates* its memory
//! behaviour to the context — per-warp address batches, atomics, shared
//! memory, shuffles — which the context folds into [`BlockStats`]. Blocks run
//! in parallel on the host pool; statistics are collected per block and
//! reduced deterministically in launch order.

use crate::cache::ReadOnlyCache;
use crate::coalesce::transactions;
use crate::config::DeviceConfig;
use crate::faults;
use crate::instrument::{self, Accesses, BlockOutput, SlotGuard};
use crate::memory::{DeviceBuffer, DeviceMemory};
use crate::record::{AccessLog, LaunchRecord};
use crate::stats::{BlockStats, KernelStats};
use crate::trace::{LaunchTrace, MemoryEventKind, TraceLog};
use parking_lot::Mutex;

/// A simulated GPU: configuration plus global memory.
pub struct GpuDevice {
    config: DeviceConfig,
    memory: DeviceMemory,
    sinks: Mutex<Sinks>,
}

/// The instrumentation a device has switched on, with what it captured.
#[derive(Default)]
struct Sinks {
    /// `Some` while the device is in sanitizer recording mode.
    recording: Option<AccessLog>,
    /// `Some` while the device is in profiler tracing mode.
    tracing: Option<TraceLog>,
}

impl GpuDevice {
    /// Creates a device from a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let memory = DeviceMemory::new(config.memory_capacity);
        GpuDevice {
            config,
            memory,
            sinks: Mutex::new(Sinks::default()),
        }
    }

    /// The paper's evaluation device.
    pub fn titan_x() -> Self {
        GpuDevice::new(DeviceConfig::titan_x())
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Global memory handle (allocate buffers through this).
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Puts the device into sanitizer recording mode: every subsequent launch
    /// captures per-block narrated and functional memory events (plus an
    /// allocation snapshot) into an [`AccessLog`] until
    /// [`GpuDevice::stop_recording`] is called. Idempotent while recording.
    pub fn start_recording(&self) {
        let mut sinks = self.sinks.lock();
        if sinks.recording.is_none() {
            sinks.recording = Some(AccessLog::default());
            instrument::open_gate(instrument::RECORDING);
        }
    }

    /// Leaves recording mode and returns everything captured since
    /// [`GpuDevice::start_recording`].
    ///
    /// # Panics
    /// If the device was not recording.
    pub fn stop_recording(&self) -> AccessLog {
        let log = self
            .sinks
            .lock()
            .recording
            .take()
            .expect("stop_recording called on a device that was not recording");
        instrument::close_gate(instrument::RECORDING);
        log
    }

    /// Puts the device into profiler tracing mode: every subsequent launch
    /// captures a [`LaunchTrace`] (per-block memory events plus wave spans on
    /// the simulated timeline) until [`GpuDevice::stop_tracing`] is called.
    /// Idempotent while tracing. Tracing only observes — results and
    /// simulated timings are bit-exact with an untraced run.
    pub fn start_tracing(&self) {
        let mut sinks = self.sinks.lock();
        if sinks.tracing.is_none() {
            sinks.tracing = Some(TraceLog::default());
            instrument::open_gate(instrument::TRACING);
        }
    }

    /// Leaves tracing mode and returns everything captured since
    /// [`GpuDevice::start_tracing`].
    ///
    /// # Panics
    /// If the device was not tracing.
    pub fn stop_tracing(&self) -> TraceLog {
        let log = self
            .sinks
            .lock()
            .tracing
            .take()
            .expect("stop_tracing called on a device that was not tracing");
        instrument::close_gate(instrument::TRACING);
        log
    }

    /// Takes the launches traced so far while staying in tracing mode.
    /// Returns an empty vector when the device is not tracing (callers can
    /// drain unconditionally).
    pub fn drain_trace(&self) -> Vec<LaunchTrace> {
        match self.sinks.lock().tracing.as_mut() {
            Some(log) => std::mem::take(&mut log.launches),
            None => Vec::new(),
        }
    }

    /// Launches a kernel over a `grid.0 × grid.1` grid of one-dimensional
    /// blocks of `block_threads` threads, mirroring the paper's
    /// "two-dimensional thread grids with one-dimensional thread blocks".
    ///
    /// Blocks execute in parallel on the host; the returned statistics are
    /// deterministic (reduced in block launch order, x-major), and so are
    /// float atomics, which are applied in that order once every block has
    /// run.
    ///
    /// # Panics
    /// If `block_threads` is zero, not a multiple of the warp size, or
    /// exceeds the device limit.
    pub fn launch<K>(&self, grid: (usize, usize), block_threads: usize, kernel: K) -> KernelStats
    where
        K: Fn(&mut BlockCtx) + Sync,
    {
        self.launch_with_shared(grid, block_threads, 0, kernel)
    }

    /// Like [`GpuDevice::launch`], but for kernels that statically allocate
    /// `shared_bytes` of shared memory per block: occupancy is additionally
    /// limited to `shared_mem_per_sm / shared_bytes` blocks per SM.
    ///
    /// # Panics
    /// If the block shape is invalid (see [`GpuDevice::launch`]) or a single
    /// block's shared allocation exceeds the per-SM capacity.
    pub fn launch_with_shared<K>(
        &self,
        grid: (usize, usize),
        block_threads: usize,
        shared_bytes: usize,
        kernel: K,
    ) -> KernelStats
    where
        K: Fn(&mut BlockCtx) + Sync,
    {
        assert!(block_threads > 0, "block must have threads");
        assert_eq!(
            block_threads % self.config.warp_size,
            0,
            "block size must be a whole number of warps"
        );
        assert!(
            block_threads <= self.config.max_threads_per_block,
            "block size {} exceeds device limit {}",
            block_threads,
            self.config.max_threads_per_block
        );
        assert!(
            shared_bytes <= self.config.shared_mem_per_sm,
            "shared allocation {} exceeds per-SM capacity {}",
            shared_bytes,
            self.config.shared_mem_per_sm
        );
        let (gx, gy) = grid;
        let total_blocks = gx * gy;
        let mut concurrent = self.config.concurrent_blocks(block_threads);
        if let Some(per_sm) = self.config.shared_mem_per_sm.checked_div(shared_bytes) {
            concurrent = concurrent.min(per_sm.max(1) * self.config.num_sms);
        }
        // Fault-injection hook: advance the launch counter, arm this
        // launch's faults, and honour an injected launch failure — the
        // kernel never runs, so output buffers keep their pre-launch
        // contents and only the launch overhead is charged (the failure is
        // latched for the host to observe, like CUDA's async error state).
        // Both logs record the launch, with no blocks.
        if faults::faults_active() && self.memory.fault_launch_begin() {
            let mut sinks = self.sinks.lock();
            if let Some(log) = sinks.recording.as_mut() {
                log.launches.push(LaunchRecord {
                    grid,
                    block_threads,
                    blocks: Vec::new(),
                    allocations: self.memory.live_allocations(),
                });
            }
            if let Some(log) = sinks.tracing.as_mut() {
                log.launches.push(LaunchTrace::dropped(
                    grid,
                    block_threads,
                    concurrent,
                    &self.config,
                ));
            }
            return KernelStats::from_blocks_with_concurrency(&[], concurrent, &self.config);
        }
        let (recording, tracing) = {
            let sinks = self.sinks.lock();
            (sinks.recording.is_some(), sinks.tracing.is_some())
        };
        let mut per_block: Vec<BlockSlot> =
            (0..total_blocks).map(|_| BlockSlot::default()).collect();
        let config = &self.config;
        cpu_par::par_chunks_mut(&mut per_block, 8, |chunk_index, chunk| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                let block_linear = chunk_index * 8 + offset;
                // x-major linearization: bIdx varies fastest.
                let block_x = block_linear % gx.max(1);
                let block_y = block_linear / gx.max(1);
                let guard = SlotGuard::begin(block_linear, recording, tracing);
                let mut ctx = BlockCtx::new(config, block_x, block_y, block_threads);
                kernel(&mut ctx);
                slot.stats = ctx.finish();
                slot.output = guard.finish();
            }
        });
        // Float atomics land in block-linear order whatever the worker
        // count, which at one worker is the order they were issued in.
        for slot in &mut per_block {
            slot.output.apply_atomics();
        }
        let stats: Vec<BlockStats> = per_block.iter().map(|slot| slot.stats.clone()).collect();
        let mut sinks = self.sinks.lock();
        if let (true, Some(log)) = (recording, sinks.recording.as_mut()) {
            log.launches.push(LaunchRecord {
                grid,
                block_threads,
                blocks: per_block
                    .iter_mut()
                    .filter_map(|slot| slot.output.record.take())
                    .collect(),
                allocations: self.memory.live_allocations(),
            });
        }
        if let (true, Some(log)) = (tracing, sinks.tracing.as_mut()) {
            log.launches.push(LaunchTrace::assemble(
                grid,
                block_threads,
                concurrent,
                &stats,
                per_block
                    .into_iter()
                    .filter_map(|slot| slot.output.trace)
                    .collect(),
                config,
            ));
        }
        KernelStats::from_blocks_with_concurrency(&stats, concurrent, config)
    }
}

/// What one block of a launch leaves behind for the launch to reduce in
/// block-linear order.
#[derive(Default)]
struct BlockSlot {
    stats: BlockStats,
    output: BlockOutput,
}

/// Execution context handed to a kernel closure, one per thread block.
pub struct BlockCtx<'a> {
    config: &'a DeviceConfig,
    block_x: usize,
    block_y: usize,
    block_threads: usize,
    stats: BlockStats,
    rocache: ReadOnlyCache,
    rocache_sharers: u64,
    warp_cycles: u64,
    warp_open: bool,
}

impl<'a> BlockCtx<'a> {
    fn new(config: &'a DeviceConfig, block_x: usize, block_y: usize, block_threads: usize) -> Self {
        BlockCtx {
            config,
            block_x,
            block_y,
            block_threads,
            stats: BlockStats::default(),
            rocache: ReadOnlyCache::new(
                config.readonly_cache_bytes,
                config.readonly_line_bytes,
                config.readonly_ways,
            ),
            rocache_sharers: 1,
            warp_cycles: 0,
            warp_open: false,
        }
    }

    /// Declares that `sharers` co-resident sibling blocks consume the other
    /// words of every read-only cache line this block fills — e.g. the
    /// column blocks `bIdy, bIdy+1, …` of the unified kernels, which read
    /// adjacent columns of the same factor rows on the same SM. Each miss
    /// then charges `line_bytes / sharers` of DRAM traffic to this block
    /// (the fill is amortized across the siblings).
    pub fn set_rocache_sharers(&mut self, sharers: u64) {
        self.rocache_sharers = sharers.max(1);
    }

    /// Block index along the grid's x dimension.
    pub fn block_x(&self) -> usize {
        self.block_x
    }

    /// Block index along the grid's y dimension.
    pub fn block_y(&self) -> usize {
        self.block_y
    }

    /// Threads per block for this launch.
    pub fn block_threads(&self) -> usize {
        self.block_threads
    }

    /// Warp width of the device.
    pub fn warp_size(&self) -> usize {
        self.config.warp_size
    }

    /// Number of warps in the block.
    pub fn warps_per_block(&self) -> usize {
        self.block_threads / self.config.warp_size
    }

    /// Device configuration (for kernels that need model constants).
    pub fn config(&self) -> &DeviceConfig {
        self.config
    }

    /// Starts accounting a new warp; closes the previous one.
    ///
    /// Kernels iterate their block's warps and call this once per warp so the
    /// context can track the slowest warp (intra-block imbalance).
    pub fn begin_warp(&mut self) {
        instrument::begin_warp();
        self.close_warp();
        self.warp_open = true;
    }

    fn close_warp(&mut self) {
        if self.warp_open {
            self.stats.warps += 1;
            self.stats.max_warp_cycles = self.stats.max_warp_cycles.max(self.warp_cycles);
            self.stats.total_warp_cycles += self.warp_cycles;
            self.warp_cycles = 0;
            self.warp_open = false;
        }
    }

    fn finish(mut self) -> BlockStats {
        self.close_warp();
        self.stats
    }

    /// Charges `warp_instructions` cycles of compute to the current warp
    /// (one warp-wide instruction ≈ one cycle).
    #[inline]
    pub fn compute(&mut self, warp_instructions: u64) {
        self.warp_cycles += warp_instructions;
    }

    /// Charges a warp-wide global-memory read with the given lane addresses.
    #[inline]
    pub fn read_global(&mut self, addrs: &[u64]) {
        self.global_access(addrs);
        self.narrate(MemoryEventKind::GlobalRead, Accesses::Lanes(addrs));
    }

    /// Charges a warp-wide global-memory write with the given lane addresses.
    #[inline]
    pub fn write_global(&mut self, addrs: &[u64]) {
        self.global_access(addrs);
        self.narrate(MemoryEventKind::GlobalWrite, Accesses::Lanes(addrs));
    }

    /// Charges a warp-wide write whose cache lines are co-written by
    /// `sharers` sibling blocks (adjacent columns of the same output rows):
    /// the write-back L2 merges the partial-line writes, so DRAM sees each
    /// line once per `sharers` blocks. Issue cost is unchanged.
    pub fn write_global_shared(&mut self, addrs: &[u64], sharers: u64) {
        if addrs.is_empty() {
            return;
        }
        let t = transactions(addrs, self.config.transaction_bytes) as u64;
        self.stats.transactions += t;
        self.stats.dram_bytes +=
            (t * self.config.transaction_bytes as u64 / sharers.max(1)).max(t * 4);
        self.warp_cycles += t * self.config.mem_issue_cycles;
        self.narrate(MemoryEventKind::GlobalWrite, Accesses::Lanes(addrs));
    }

    fn global_access(&mut self, addrs: &[u64]) {
        if addrs.is_empty() {
            return;
        }
        let t = transactions(addrs, self.config.transaction_bytes) as u64;
        self.stats.transactions += t;
        self.stats.dram_bytes += t * self.config.transaction_bytes as u64;
        self.warp_cycles += t * self.config.mem_issue_cycles;
    }

    /// Charges a streaming read of a contiguous `bytes`-long region starting
    /// at `start_addr`.
    ///
    /// This models blocked per-thread access to consecutive elements (each
    /// thread owns a contiguous chunk): the hardware touches every sector of
    /// the warp's combined region exactly once via the L1/L2 path, so the
    /// cost is the region's aligned sector count rather than a naive
    /// per-iteration stride analysis.
    pub fn read_global_range(&mut self, start_addr: u64, bytes: usize) {
        self.stream_range(start_addr, bytes);
        self.narrate(
            MemoryEventKind::StreamRead,
            Accesses::Range(start_addr, bytes),
        );
    }

    /// Charges a streaming write of a contiguous region (same model as
    /// [`BlockCtx::read_global_range`]).
    pub fn write_global_range(&mut self, start_addr: u64, bytes: usize) {
        self.stream_range(start_addr, bytes);
        self.narrate(
            MemoryEventKind::StreamWrite,
            Accesses::Range(start_addr, bytes),
        );
    }

    /// Cost of streaming a contiguous region through DRAM (shared by the
    /// range read/write narration methods).
    fn stream_range(&mut self, start_addr: u64, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let shift = self.config.transaction_bytes.trailing_zeros();
        let first = start_addr >> shift;
        let last = (start_addr + bytes as u64 - 1) >> shift;
        let t = last - first + 1;
        self.stats.transactions += t;
        self.stats.dram_bytes += t * self.config.transaction_bytes as u64;
        self.warp_cycles += t * self.config.mem_issue_cycles;
    }

    /// Charges a streaming read of a contiguous region that is known to be
    /// resident in the device-wide L2 because a co-scheduled block just
    /// streamed the same region (e.g. the column blocks `bIdy > 0` of the
    /// unified kernels re-reading the tensor stream their `bIdy = 0` sibling
    /// fetched). Load instructions still issue and transactions still count,
    /// but no DRAM traffic is charged.
    pub fn read_global_range_l2(&mut self, start_addr: u64, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let shift = self.config.transaction_bytes.trailing_zeros();
        let first = start_addr >> shift;
        let last = (start_addr + bytes as u64 - 1) >> shift;
        let t = last - first + 1;
        self.stats.transactions += t;
        self.warp_cycles += t * self.config.mem_issue_cycles;
        self.narrate(
            MemoryEventKind::StreamRead,
            Accesses::Range(start_addr, bytes),
        );
    }

    /// Charges a warp-wide read of a *reused* working set of `ws_bytes`
    /// total size through plain global loads: coalescing applies, and when
    /// the working set fits the device L2, repeat traffic stays on chip
    /// (no DRAM bytes). Use for factor-matrix reads in kernels that do not
    /// route them through the read-only cache.
    pub fn read_global_ws(&mut self, addrs: &[u64], ws_bytes: usize) {
        if addrs.is_empty() {
            return;
        }
        let t = transactions(addrs, self.config.transaction_bytes) as u64;
        self.stats.transactions += t;
        self.warp_cycles += t * self.config.mem_issue_cycles;
        if ws_bytes <= self.config.l2_bytes {
            self.warp_cycles += self.config.l2_latency_cycles;
        } else {
            self.stats.dram_bytes += t * self.config.transaction_bytes as u64;
        }
        self.narrate(MemoryEventKind::GlobalRead, Accesses::Lanes(addrs));
    }

    /// Charges a warp-wide read through the read-only data cache (the `__ldg`
    /// path the paper uses for factor matrices). Hits cost one cycle and no
    /// DRAM traffic; misses fill a cache line from DRAM.
    pub fn read_readonly(&mut self, addrs: &[u64]) {
        self.read_readonly_ws(addrs, usize::MAX);
    }

    /// Like [`BlockCtx::read_readonly`], but for a reused working set of
    /// `ws_bytes` total size: read-only cache misses whose working set fits
    /// the device L2 are served on chip (L2 latency, no DRAM fill).
    pub fn read_readonly_ws(&mut self, addrs: &[u64], ws_bytes: usize) {
        let line = self.rocache.line_bytes() as u64;
        let mut seen_lines = [u64::MAX; 32];
        let mut seen = 0usize;
        for &addr in addrs {
            // Coalesce within the warp first: one probe per distinct line.
            let tag = addr / line;
            if seen_lines[..seen].contains(&tag) {
                continue;
            }
            if seen < seen_lines.len() {
                seen_lines[seen] = tag;
                seen += 1;
            }
            if self.rocache.access(addr) {
                self.stats.rocache_hits += 1;
                self.warp_cycles += 1;
            } else {
                self.stats.rocache_misses += 1;
                self.stats.transactions += 1;
                if ws_bytes <= self.config.l2_bytes {
                    self.warp_cycles += self.config.l2_latency_cycles;
                } else {
                    self.stats.dram_bytes += (line / self.rocache_sharers).max(4);
                    self.warp_cycles += self.config.rocache_miss_cycles;
                }
            }
        }
        self.narrate(MemoryEventKind::CacheRead, Accesses::Lanes(addrs));
    }

    /// Performs and charges a warp's worth of `atomicAdd(float*)`: each
    /// `(index, value)` pair is one lane's atomic into `buffer`.
    ///
    /// Lanes targeting the same element serialize: the warp pays
    /// `atomic_cycles × max multiplicity`, which is the contention behaviour
    /// that makes COO-style accumulation expensive on GPUs (§III-B).
    pub fn atomic_add_f32(&mut self, buffer: &DeviceBuffer<f32>, lanes: &[(usize, f32)]) {
        if lanes.is_empty() {
            return;
        }
        let addrs: Vec<u64> = lanes.iter().map(|&(i, _)| buffer.addr(i)).collect();
        let mut seen: Vec<(usize, u64)> = Vec::with_capacity(lanes.len());
        for &(index, _) in lanes {
            match seen.iter_mut().find(|(i, _)| *i == index) {
                Some((_, count)) => *count += 1,
                None => seen.push((index, 1)),
            }
        }
        let max_multiplicity = seen.iter().map(|&(_, count)| count).max().unwrap_or(0);
        self.stats.atomics += lanes.len() as u64;
        let conflict = self.config.atomic_cycles * max_multiplicity;
        self.stats.atomic_conflict_cycles += conflict;
        self.warp_cycles += conflict;
        // The write traffic itself.
        self.global_access(&addrs);
        // Narrated before performed: the record lists the batch ahead of the
        // functional atomics it describes.
        instrument::narrate(
            MemoryEventKind::Atomic,
            Accesses::Lanes(&addrs),
            max_multiplicity,
            &self.stats,
            self.config.transaction_bytes,
        );
        for &(index, value) in lanes {
            buffer.atomic_add_f32(index, value);
        }
    }

    /// Charges `ops` shared-memory accesses.
    #[inline]
    pub fn shared(&mut self, ops: u64) {
        self.stats.shared_ops += ops;
        self.warp_cycles += ops * self.config.shared_cycles;
    }

    /// Charges `ops` warp-shuffle instructions (register exchange; the paper
    /// uses these inside the segmented scan to avoid shared memory).
    #[inline]
    pub fn shuffle(&mut self, ops: u64) {
        self.stats.shuffles += ops;
        self.warp_cycles += ops * self.config.shuffle_cycles;
    }

    /// Charges one `__syncthreads()` barrier.
    #[inline]
    pub fn syncthreads(&mut self) {
        self.warp_cycles += self.config.syncthreads_cycles;
        instrument::sync(false);
    }

    /// Charges one adjacent-synchronization wait (StreamScan-style inter-block
    /// domino used for kernel fusion, §IV-D).
    #[inline]
    pub fn adjacent_sync(&mut self) {
        self.warp_cycles += self.config.adjacent_sync_cycles;
        instrument::sync(true);
    }

    /// Charges a divergent per-lane loop: the warp runs as long as its
    /// busiest lane (`cycles_per_iter × max iterations`), regardless of how
    /// little the other lanes do. This is the warp-divergence penalty of
    /// fiber-centric baselines.
    pub fn diverged_loop(&mut self, lane_iterations: &[u64], cycles_per_iteration: u64) {
        let max = lane_iterations.iter().copied().max().unwrap_or(0);
        self.warp_cycles += max * cycles_per_iteration;
    }

    /// Read-only cache hit rate observed so far in this block.
    pub fn rocache_hit_rate(&self) -> f64 {
        self.rocache.hit_rate()
    }

    /// The one instrumentation call of a non-atomic narration method, made
    /// after it has charged its cost.
    #[inline]
    fn narrate(&self, kind: MemoryEventKind, accesses: Accesses) {
        instrument::narrate(
            kind,
            accesses,
            0,
            &self.stats,
            self.config.transaction_bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_every_block_once() {
        let device = GpuDevice::titan_x();
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let stats = device.launch((7, 3), 64, |ctx| {
            assert!(ctx.block_x() < 7);
            assert!(ctx.block_y() < 3);
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 21);
        assert_eq!(stats.blocks, 21);
    }

    #[test]
    fn kernel_writes_are_visible_after_launch() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(64).unwrap();
        device.launch((64, 1), 32, |ctx| {
            let x = ctx.block_x();
            // SAFETY: each block writes a distinct element.
            unsafe { buffer.write(x, x as f32) };
            ctx.write_global(&[buffer.addr(x)]);
        });
        let host = buffer.to_vec();
        assert!(host.iter().enumerate().all(|(i, &v)| v == i as f32));
    }

    #[test]
    fn coalesced_reads_cost_fewer_transactions_than_scattered() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(100_000).unwrap();
        let coalesced = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            let addrs: Vec<u64> = (0..32).map(|lane| buffer.addr(lane)).collect();
            ctx.read_global(&addrs);
        });
        let scattered = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            let addrs: Vec<u64> = (0..32).map(|lane| buffer.addr(lane * 1024)).collect();
            ctx.read_global(&addrs);
        });
        assert_eq!(coalesced.transactions, 4);
        assert_eq!(scattered.transactions, 32);
        assert!(scattered.dram_bytes > coalesced.dram_bytes);
    }

    #[test]
    fn atomic_conflicts_serialize() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(64).unwrap();
        // All 32 lanes hit the same element.
        let conflicted = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            let lanes: Vec<(usize, f32)> = (0..32).map(|_| (0usize, 1.0f32)).collect();
            ctx.atomic_add_f32(&buffer, &lanes);
        });
        assert_eq!(buffer.get(0), 32.0);
        // Distinct elements: no serialization.
        let buffer2 = device.memory().alloc_zeroed::<f32>(64).unwrap();
        let spread = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            let lanes: Vec<(usize, f32)> = (0..32).map(|lane| (lane, 1.0f32)).collect();
            ctx.atomic_add_f32(&buffer2, &lanes);
        });
        assert!(conflicted.atomic_conflict_cycles > 8 * spread.atomic_conflict_cycles);
        assert!(conflicted.time_us > spread.time_us);
    }

    #[test]
    fn float_atomics_sum_in_block_order_on_any_worker_count() {
        // Magnitudes spanning seven decades make the f32 sum depend on its
        // order, so any order but block-linear shows in the bits.
        let value = |b: usize| (b as f32 * 0.37).sin() * 10f32.powi((b % 7) as i32);
        let blocks = 512;
        let mut expected = 0.0f32;
        for b in 0..blocks {
            expected += value(b);
            expected += value(b + blocks);
        }
        let device = GpuDevice::titan_x();
        for _ in 0..4 {
            let buffer = device.memory().alloc_zeroed::<f32>(1).unwrap();
            device.launch((blocks, 1), 32, |ctx| {
                let b = ctx.block_x();
                ctx.begin_warp();
                ctx.atomic_add_f32(&buffer, &[(0, value(b))]);
                buffer.atomic_add_f32(0, value(b + blocks));
            });
            assert_eq!(buffer.get(0).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn a_buffer_released_inside_a_block_keeps_its_atomics() {
        let device = GpuDevice::titan_x();
        let sums = device.memory().alloc_zeroed::<f32>(8).unwrap();
        device.launch((8, 1), 32, |ctx| {
            let b = ctx.block_x();
            let local = device.memory().alloc_zeroed::<f32>(2).unwrap();
            local.atomic_add_f32(1, b as f32);
            local.atomic_add_f32(1, 0.5);
            let host = local.into_vec();
            // SAFETY: each block writes a distinct element.
            unsafe { sums.write(b, host[1]) };
        });
        let expected: Vec<f32> = (0..8).map(|b| b as f32 + 0.5).collect();
        assert_eq!(sums.to_vec(), expected);
    }

    #[test]
    fn readonly_cache_reuse_avoids_dram_traffic() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(1 << 20).unwrap();
        // Re-reading the same 8 rows: high hit rate.
        let reused = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            for i in 0..1000u64 {
                let addr = buffer.addr(((i % 8) * 16) as usize);
                ctx.read_readonly(&[addr]);
            }
        });
        // Streaming fresh rows every access: all misses.
        let streamed = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            for i in 0..1000usize {
                ctx.read_readonly(&[buffer.addr(i * 64)]);
            }
        });
        assert!(reused.rocache_hit_rate > 0.95);
        assert!(streamed.rocache_hit_rate < 0.05);
        assert!(streamed.dram_bytes > 50 * reused.dram_bytes.max(1));
    }

    #[test]
    fn diverged_loop_charges_max_lane() {
        let device = GpuDevice::titan_x();
        let even = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.diverged_loop(&[10; 32], 2);
        });
        let skewed = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            let mut lanes = [1u64; 32];
            lanes[0] = 1000;
            ctx.diverged_loop(&lanes, 2);
        });
        assert!(skewed.time_us > even.time_us);
    }

    #[test]
    fn l2_working_set_reads_avoid_dram() {
        let device = GpuDevice::titan_x();
        let small_ws = 64 * 1024; // fits the 3 MB L2
        let big_ws = 64 << 20; // exceeds it
        let buffer = device.memory().alloc_zeroed::<f32>(1 << 20).unwrap();
        let addrs: Vec<u64> = (0..32).map(|lane| buffer.addr(lane * 999)).collect();
        let cached = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.read_global_ws(&addrs, small_ws);
        });
        let uncached = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.read_global_ws(&addrs, big_ws);
        });
        assert_eq!(cached.dram_bytes, 0);
        assert!(uncached.dram_bytes > 0);
        // Transactions are issued either way.
        assert_eq!(cached.transactions, uncached.transactions);
    }

    #[test]
    fn readonly_ws_misses_stay_on_chip_when_fitting_l2() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(1 << 20).unwrap();
        // Streaming pattern: all read-only cache misses.
        let run = |ws: usize| {
            device.launch((1, 1), 32, |ctx| {
                ctx.begin_warp();
                for i in 0..512usize {
                    ctx.read_readonly_ws(&[buffer.addr(i * 64)], ws);
                }
            })
        };
        let on_chip = run(128 * 1024);
        let off_chip = run(64 << 20);
        assert!(on_chip.rocache_hit_rate < 0.1);
        assert_eq!(on_chip.dram_bytes, 0);
        assert!(off_chip.dram_bytes > 0);
    }

    #[test]
    fn shared_write_amortizes_dram_across_siblings() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(1 << 16).unwrap();
        let addrs: Vec<u64> = (0..32).map(|lane| buffer.addr(lane * 64)).collect();
        let solo = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.write_global_shared(&addrs, 1);
        });
        let shared = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.write_global_shared(&addrs, 8);
        });
        assert_eq!(solo.dram_bytes, 8 * shared.dram_bytes);
        assert_eq!(solo.transactions, shared.transactions);
    }

    #[test]
    fn read_global_range_l2_counts_transactions_without_dram() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(4096).unwrap();
        let stats = device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.read_global_range_l2(buffer.addr(0), 4096 * 4);
        });
        assert_eq!(stats.dram_bytes, 0);
        assert_eq!(stats.transactions, (4096 * 4 / 32) as u64);
    }

    #[test]
    fn shared_memory_limits_occupancy() {
        // Same per-block work, but one variant declares 48 KB of shared
        // memory per block: only 2 blocks fit per SM instead of 16, so the
        // launch needs more waves and takes longer.
        let device = GpuDevice::titan_x();
        let blocks = device.config().num_sms * 16;
        let body = |ctx: &mut BlockCtx| {
            ctx.begin_warp();
            ctx.compute(100_000);
        };
        let unconstrained = device.launch_with_shared((blocks, 1), 128, 0, body);
        let constrained = device.launch_with_shared((blocks, 1), 128, 48 * 1024, body);
        assert_eq!(unconstrained.waves, 1);
        assert!(constrained.waves >= 8);
        assert!(constrained.time_us > 4.0 * unconstrained.time_us);
    }

    #[test]
    fn kernel_statistics_are_deterministic() {
        // Blocks run on host threads in nondeterministic order, but stats are
        // collected per block slot and reduced in launch order — two runs of
        // the same kernel must price identically.
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(1 << 16).unwrap();
        let run = || {
            device.launch((64, 4), 128, |ctx| {
                for w in 0..ctx.warps_per_block() {
                    ctx.begin_warp();
                    let base = (ctx.block_x() * 128 + w * 32) % 60_000;
                    let addrs: Vec<u64> =
                        (0..32).map(|lane| buffer.addr(base + lane * 7)).collect();
                    ctx.read_global(&addrs);
                    ctx.read_readonly(&addrs);
                    ctx.compute(ctx.block_y() as u64 + 3);
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
        assert_eq!(a.dram_bytes, b.dram_bytes);
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.rocache_hit_rate.to_bits(), b.rocache_hit_rate.to_bits());
    }

    #[test]
    fn recording_captures_narrated_and_functional_events() {
        use crate::record::AccessKind;
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(256).unwrap();
        device.start_recording();
        device.launch((2, 1), 32, |ctx| {
            ctx.begin_warp();
            let base = ctx.block_x() * 32;
            let addrs: Vec<u64> = (0..32).map(|lane| buffer.addr(base + lane)).collect();
            ctx.read_global(&addrs);
            let value = buffer.get(base);
            ctx.syncthreads();
            // SAFETY: each block writes a distinct element.
            unsafe { buffer.write(base, value + 1.0) };
            ctx.write_global(&[buffer.addr(base)]);
        });
        let log = device.stop_recording();
        assert_eq!(log.launches.len(), 1);
        let launch = &log.launches[0];
        assert_eq!(launch.grid, (2, 1));
        assert_eq!(launch.block_threads, 32);
        assert_eq!(launch.blocks.len(), 2);
        assert!(launch.allocations.contains(&(buffer.addr(0), 256 * 4)));
        for (block, record) in launch.blocks.iter().enumerate() {
            assert_eq!(record.block, block);
            // 32 narrated reads + 1 functional read + 1 functional write
            // + 1 narrated write.
            assert_eq!(record.events.len(), 35);
            let functional_write = record
                .events
                .iter()
                .find(|e| e.kind == AccessKind::FunctionalWrite)
                .expect("functional write recorded");
            assert_eq!(functional_write.addr, buffer.addr(block * 32));
            assert_eq!(
                functional_write.epoch, 1,
                "write happened after syncthreads"
            );
            let functional_read = record
                .events
                .iter()
                .find(|e| e.kind == AccessKind::FunctionalRead)
                .expect("functional read recorded");
            assert_eq!(functional_read.epoch, 0, "read happened before syncthreads");
        }
        // After stop_recording, launches are no longer captured and the
        // functional hooks go quiet (no block slot records on any thread).
        device.launch((1, 1), 32, |ctx| {
            ctx.begin_warp();
            let _ = buffer.get(0);
            ctx.read_global(&[buffer.addr(0)]);
        });
        assert_eq!(log.event_count(), 70);
    }

    #[test]
    fn recording_spans_multiple_launches() {
        let device = GpuDevice::titan_x();
        let buffer = device.memory().alloc_zeroed::<f32>(32).unwrap();
        device.start_recording();
        for _ in 0..3 {
            device.launch((1, 1), 32, |ctx| {
                ctx.begin_warp();
                ctx.read_global(&[buffer.addr(0)]);
            });
        }
        let log = device.stop_recording();
        assert_eq!(log.launches.len(), 3);
        assert_eq!(log.event_count(), 3);
    }

    #[test]
    #[should_panic(expected = "was not recording")]
    fn stop_recording_without_start_panics() {
        let device = GpuDevice::titan_x();
        let _ = device.stop_recording();
    }

    #[test]
    #[should_panic(expected = "exceeds per-SM capacity")]
    fn oversized_shared_allocation_rejected() {
        let device = GpuDevice::titan_x();
        device.launch_with_shared((1, 1), 32, 1 << 20, |_| {});
    }

    #[test]
    #[should_panic(expected = "whole number of warps")]
    fn launch_rejects_partial_warp_blocks() {
        let device = GpuDevice::titan_x();
        device.launch((1, 1), 48, |_| {});
    }

    #[test]
    fn low_occupancy_grids_are_slower_per_work() {
        // The ParTI mode-2 phenomenon (§V-B): few blocks → idle SMs.
        let device = GpuDevice::titan_x();
        let work = 4_000u64;
        // Same total compute in 2 blocks vs 768 blocks.
        let narrow = device.launch((2, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.compute(work * 384);
        });
        let wide = device.launch((768, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.compute(work);
        });
        assert!(narrow.time_us > 10.0 * wide.time_us);
    }
}
