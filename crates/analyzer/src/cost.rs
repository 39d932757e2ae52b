//! Symbolic cost interpreter: certified `[lo, hi]` envelopes for every raw
//! counter the golden suite pins, derived from F-COO *headers alone*.
//!
//! The interpreter walks the exact structure of the unified kernel
//! (`fcoo::kernels::run_unified`) — one symbolic pass per `(block_x,
//! block_y)` cell — charging every narrated operation with the same integer
//! arithmetic the simulator uses. Two facts make most counters **exact**
//! rather than merely bounded:
//!
//! 1. every device buffer base is 256-byte aligned
//!    (`gpu_sim::memory`), a multiple of the 32-byte transaction sector, so
//!    within-buffer sector counts depend only on element offsets — which the
//!    header determines — and distinct buffers never share a sector;
//! 2. the segment structure (where every finalize, output write and
//!    frontier atomic lands: segment `s` owns output row `s`) is fully
//!    encoded by `bf`, `sf` and `partition_first_segment` — no tensor
//!    *values* are consulted.
//!
//! The only value-dependent quantity is the factor-matrix gather: which rows
//! lane `l` reads depends on `product_indices`, which the certifier is not
//! allowed to read. Those reads go through the read-only cache, so the
//! envelope brackets them with the extremal-warp abstract domain: per call a
//! warp probes between `F` lines (all live lanes hit the same row per
//! factor; distinct factor buffers can never share a line) and `live · F`
//! lines (all distinct), each probe costing between one hit cycle and one
//! miss fill. Everything downstream of those intervals — per-block cycle
//! maxima, the wave fold, `time_us` — is interval arithmetic over monotone
//! maps, evaluated by mirroring `KernelStats::from_blocks_with_concurrency`
//! bit for bit at both endpoints, so an all-exact launch (e.g. the atomic
//! ablation with `use_rocache = false`… or any launch whose interval
//! collapses) reproduces the measured `time_us` to the last bit.
//!
//! Soundness contract: for every concrete tensor whose F-COO headers match,
//! the measured [`KernelCounters`] of a traced launch satisfy
//! `lo ≤ measured ≤ hi` field-wise ([`CounterEnvelope::violations`] checks
//! it; the golden suite and the property tests enforce it).

use fcoo::chunk::ChunkPlan;
use fcoo::{
    AnyFormat, BitFlags, ColumnTiling, Fcoo, FormatKind, LaunchConfig, SortedFcoo, TensorOp,
    BUCKET_RUN, BUCKET_SHUFFLE_OPS,
};
use gpu_sim::{scan, BlockStats, DeviceConfig, KernelCounters, KernelStats};
use tensor_core::SparseTensorCoo;

/// A closed integer interval `[lo, hi]` certifying a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Certified lower bound (inclusive).
    pub lo: u64,
    /// Certified upper bound (inclusive).
    pub hi: u64,
}

impl Interval {
    /// The exact interval `[v, v]`.
    pub const fn exact(v: u64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`.
    ///
    /// # Panics
    /// If `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "interval bounds inverted: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The empty-cost interval `[0, 0]`.
    pub const ZERO: Interval = Interval::exact(0);

    /// Whether `v` lies inside the envelope.
    pub fn contains(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the bound is exact (`lo == hi`).
    pub fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    fn add(&mut self, other: Interval) {
        self.lo += other.lo;
        self.hi += other.hi;
    }

    fn add_exact(&mut self, v: u64) {
        self.lo += v;
        self.hi += v;
    }

    fn max_with(&mut self, other: Interval) {
        self.lo = self.lo.max(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    fn scale(self, k: u64) -> Interval {
        Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Certified bounds on a simulated duration in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBounds {
    /// Certified lower bound.
    pub lo: f64,
    /// Certified upper bound.
    pub hi: f64,
}

impl TimeBounds {
    /// Whether `t` lies inside the envelope.
    pub fn contains(self, t: f64) -> bool {
        self.lo <= t && t <= self.hi
    }
}

/// Certified envelopes for every counter of a [`KernelCounters`] report.
///
/// Fields typed `u64` are exact by construction (pure launch geometry or
/// segment-structure arithmetic); fields typed [`Interval`] may widen where
/// the factor-gather targets are value-dependent. Multi-launch pipelines
/// (two-step, chunked) sum envelopes with [`CounterEnvelope::accumulate`],
/// mirroring [`KernelCounters::merge`].
#[derive(Debug, Clone)]
pub struct CounterEnvelope {
    /// Bounds on the traced `time_us` (summed over merged launches).
    pub time_us: TimeBounds,
    /// Launches merged into the envelope.
    pub launches: u64,
    /// Blocks executed (exact: grid geometry).
    pub blocks: u64,
    /// Scheduling waves (exact: occupancy arithmetic).
    pub waves: u64,
    /// Warp slots the launch configurations ask for (exact).
    pub launched_warps: u64,
    /// Warps that begin execution (exact: partition coverage).
    pub active_warps: u64,
    /// Global-memory transactions, post-coalescing.
    pub transactions: Interval,
    /// Perfectly-coalesced transaction baseline.
    pub ideal_transactions: Interval,
    /// Worst single narrated access.
    pub max_access_transactions: Interval,
    /// DRAM bytes moved.
    pub dram_bytes: Interval,
    /// Read-only cache hits.
    pub cache_hits: Interval,
    /// Read-only cache misses.
    pub cache_misses: Interval,
    /// Atomic lanes issued (exact: segment frontier structure).
    pub atomics: u64,
    /// Narrated atomic batches (exact).
    pub atomic_calls: u64,
    /// Summed worst per-batch multiplicity (exact).
    pub atomic_multiplicity_sum: u64,
    /// Exact extra `KernelStats::time_us` of untraced follow-up work (the
    /// unfused carry-resolution kernel). Zero for every traced counter —
    /// add it when bounding `KernelStats::time_us` instead
    /// ([`CounterEnvelope::stats_time_us`]).
    pub untraced_time_us: f64,
}

impl CounterEnvelope {
    fn empty() -> Self {
        CounterEnvelope {
            time_us: TimeBounds { lo: 0.0, hi: 0.0 },
            launches: 0,
            blocks: 0,
            waves: 0,
            launched_warps: 0,
            active_warps: 0,
            transactions: Interval::ZERO,
            ideal_transactions: Interval::ZERO,
            max_access_transactions: Interval::ZERO,
            dram_bytes: Interval::ZERO,
            cache_hits: Interval::ZERO,
            cache_misses: Interval::ZERO,
            atomics: 0,
            atomic_calls: 0,
            atomic_multiplicity_sum: 0,
            untraced_time_us: 0.0,
        }
    }

    /// Sums `other` into `self`, mirroring [`KernelCounters::merge`]
    /// (durations and counters add; the worst single access is the max).
    pub fn accumulate(&mut self, other: &CounterEnvelope) {
        self.time_us.lo += other.time_us.lo;
        self.time_us.hi += other.time_us.hi;
        self.launches += other.launches;
        self.blocks += other.blocks;
        self.waves += other.waves;
        self.launched_warps += other.launched_warps;
        self.active_warps += other.active_warps;
        self.transactions.add(other.transactions);
        self.ideal_transactions.add(other.ideal_transactions);
        self.max_access_transactions
            .max_with(other.max_access_transactions);
        self.dram_bytes.add(other.dram_bytes);
        self.cache_hits.add(other.cache_hits);
        self.cache_misses.add(other.cache_misses);
        self.atomics += other.atomics;
        self.atomic_calls += other.atomic_calls;
        self.atomic_multiplicity_sum += other.atomic_multiplicity_sum;
        self.untraced_time_us += other.untraced_time_us;
    }

    /// Bounds on the operation's `KernelStats::time_us` — the traced
    /// envelope plus the exact untraced follow-up time. This is the quantity
    /// the tuner minimizes, so certified dominance pruning compares these.
    pub fn stats_time_us(&self) -> TimeBounds {
        TimeBounds {
            lo: self.time_us.lo + self.untraced_time_us,
            hi: self.time_us.hi + self.untraced_time_us,
        }
    }

    /// Field-wise containment check of a measured counter report. Returns
    /// one human-readable line per violated bound (empty = certified). A
    /// non-empty result is a soundness bug in either the cost model or the
    /// kernels — the golden suite and `tensortool certify` fail on it.
    pub fn violations(&self, measured: &KernelCounters) -> Vec<String> {
        let mut out = Vec::new();
        let mut exact = |label: &str, want: u64, got: u64| {
            if want != got {
                out.push(format!("{label}: measured {got}, certified exactly {want}"));
            }
        };
        exact("launches", self.launches, measured.launches);
        exact("blocks", self.blocks, measured.blocks);
        exact("waves", self.waves, measured.waves);
        exact(
            "launched_warps",
            self.launched_warps,
            measured.launched_warps,
        );
        exact("active_warps", self.active_warps, measured.active_warps);
        exact("atomics", self.atomics, measured.atomics);
        exact("atomic_calls", self.atomic_calls, measured.atomic_calls);
        exact(
            "atomic_multiplicity_sum",
            self.atomic_multiplicity_sum,
            measured.atomic_multiplicity_sum,
        );
        let mut bounded = |label: &str, envelope: Interval, got: u64| {
            if !envelope.contains(got) {
                out.push(format!("{label}: measured {got} outside {envelope}"));
            }
        };
        bounded("transactions", self.transactions, measured.transactions);
        bounded(
            "ideal_transactions",
            self.ideal_transactions,
            measured.ideal_transactions,
        );
        bounded(
            "max_access_transactions",
            self.max_access_transactions,
            measured.max_access_transactions,
        );
        bounded("dram_bytes", self.dram_bytes, measured.dram_bytes);
        bounded("cache_hits", self.cache_hits, measured.cache_hits);
        bounded("cache_misses", self.cache_misses, measured.cache_misses);
        if !self.time_us.contains(measured.time_us) {
            out.push(format!(
                "time_us: measured {:.6} outside [{:.6}, {:.6}]",
                measured.time_us, self.time_us.lo, self.time_us.hi
            ));
        }
        out
    }

    /// True when a measured report lies inside every envelope.
    pub fn contains(&self, measured: &KernelCounters) -> bool {
        self.violations(measured).is_empty()
    }
}

/// The kernel-shape constants `run_unified` derives from the operation —
/// everything the interpreter needs beyond the format header.
struct KernelShape {
    /// The operation the kernel computes.
    op: TensorOp,
    /// Output columns and their split over `bIdy`.
    tiling: ColumnTiling,
    /// Factor rank of every product mode.
    rank: usize,
    /// Factor matrices gathered per non-zero.
    n_factors: usize,
    /// Total bytes of the gathered factor matrices (L2 working-set test).
    factor_ws: usize,
    /// FLOP cycles charged per gather call and tile column.
    compute_per_element: u64,
}

impl KernelShape {
    fn for_op(op: TensorOp, product_modes: &[usize], shape: &[usize], rank: usize) -> KernelShape {
        KernelShape {
            op,
            tiling: ColumnTiling::for_op(op, &vec![rank; product_modes.len()]),
            rank,
            n_factors: product_modes.len(),
            factor_ws: product_modes.iter().map(|&m| shape[m] * rank * 4).sum(),
            compute_per_element: 1 + product_modes.len() as u64,
        }
    }

    /// Column stride of product factor `p` within the output column: the
    /// last SpTTMc factor varies fastest; the other kernels read column `c`
    /// of every factor.
    fn stride(&self, p: usize) -> usize {
        match self.op {
            TensorOp::SpTtmc { .. } => self.rank.pow((self.n_factors - 1 - p) as u32),
            _ => 1,
        }
    }

    /// Bounds on the distinct `line`-byte lines product factor `p`'s wide
    /// load touches for one non-zero of column tile `ty`, over every row:
    /// a row of `rank` floats starts at any multiple of `gcd(rank, line/4)`
    /// floats past a line boundary (buffer bases are line-aligned).
    fn tile_lines(&self, p: usize, ty: usize, line: usize) -> (u64, u64) {
        let tile = self.tiling.tile;
        if tile == 1 {
            // One column: one element, one line.
            return (1, 1);
        }
        let floats = (line / 4).max(1);
        let stride = self.stride(p);
        let mut digits: Vec<usize> = (ty * tile..(ty + 1) * tile)
            .map(|c| (c / stride) % self.rank)
            .collect();
        digits.sort_unstable();
        digits.dedup();
        let step = gcd(self.rank, floats);
        let (mut lo, mut hi) = (u64::MAX, 0);
        for offset in (0..floats).step_by(step) {
            let mut lines: Vec<usize> = digits.iter().map(|d| (offset + d) / floats).collect();
            lines.dedup();
            lo = lo.min(lines.len() as u64);
            hi = hi.max(lines.len() as u64);
        }
        (lo, hi)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

/// Sector count of a contiguous stream of `bytes` at byte offset `offset`
/// within a (256-byte aligned) buffer — exactly `BlockCtx::stream_range`.
fn stream_transactions(offset: usize, bytes: usize, config: &DeviceConfig) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let shift = config.transaction_bytes.trailing_zeros();
    let first = (offset as u64) >> shift;
    let last = (offset + bytes - 1) as u64 >> shift;
    last - first + 1
}

/// Distinct-sector count of a batch of element indices into one f32 buffer
/// (offset `index * 4`) — exactly `coalesce::transactions` on the device
/// addresses, base cancelled by the 256-byte alignment.
fn batch_transactions(indices: &[usize], config: &DeviceConfig) -> u64 {
    let shift = config.transaction_bytes.trailing_zeros();
    let mut sectors: Vec<u64> = indices.iter().map(|&i| (i as u64 * 4) >> shift).collect();
    sectors.sort_unstable();
    sectors.dedup();
    sectors.len() as u64
}

/// The profiler's perfectly-coalesced baseline for a `lanes`-element 4-byte
/// batch — exactly `exec::ideal_lane_transactions`.
fn ideal_lane_transactions(lanes: usize, config: &DeviceConfig) -> u64 {
    ((lanes * 4) as u64).div_ceil(config.transaction_bytes.max(1) as u64)
}

/// Mirror of `BlockStats::compute_time_us` evaluated on explicit counters.
fn compute_time_us(max_warp_cycles: u64, total_warp_cycles: u64, device: &DeviceConfig) -> f64 {
    let throughput = total_warp_cycles as f64 / device.warp_schedulers as f64;
    let latency = max_warp_cycles as f64;
    latency.max(throughput) / device.cycles_per_us()
}

/// One block's interval-valued [`BlockStats`] image plus the trace-only
/// counters, produced by the symbolic interpreter.
#[derive(Debug, Clone)]
struct BlockEnvelope {
    max_warp_cycles: Interval,
    total_warp_cycles: Interval,
    transactions: Interval,
    ideal_transactions: Interval,
    max_access_transactions: Interval,
    dram_bytes: Interval,
    cache_hits: Interval,
    cache_misses: Interval,
    atomics: u64,
    atomic_calls: u64,
    atomic_multiplicity_sum: u64,
    warps: u64,
}

/// What the interpreter reads of a format: the F-COO header arrays plus
/// BF-COO's bucket metadata. Product indices and values never appear, so
/// nothing value-dependent can leak into an envelope except through the
/// gather intervals.
pub(crate) struct Header<'a> {
    op: TensorOp,
    product_modes: &'a [usize],
    shape: &'a [usize],
    threadlen: usize,
    nnz: usize,
    bf: &'a BitFlags,
    partition_first_segment: &'a [u32],
    /// BF-COO's per-run distinct-row counts; `None` for F-COO.
    buckets: Option<&'a [Vec<u32>]>,
}

impl<'a> Header<'a> {
    fn of(fcoo: &'a Fcoo, buckets: Option<&'a [Vec<u32>]>) -> Self {
        Header {
            op: fcoo.op,
            product_modes: &fcoo.classification.product_modes,
            shape: &fcoo.shape,
            threadlen: fcoo.threadlen,
            nnz: fcoo.nnz(),
            bf: &fcoo.bf,
            partition_first_segment: &fcoo.partition_first_segment,
            buckets,
        }
    }

    /// The header of `sorted` partitioned at `threadlen`, without building
    /// the format: what a threadlen sweep certifies.
    pub(crate) fn sorted(
        sorted: &'a SortedFcoo,
        threadlen: usize,
        partition_first_segment: &'a [u32],
        buckets: Option<&'a [Vec<u32>]>,
    ) -> Self {
        Header {
            op: sorted.op,
            product_modes: &sorted.classification.product_modes,
            shape: &sorted.shape,
            threadlen,
            nnz: sorted.nnz(),
            bf: &sorted.bf,
            partition_first_segment,
            buckets,
        }
    }

    fn partitions(&self) -> usize {
        self.partition_first_segment.len()
    }
}

/// Lanes per warp: warps start on 32-thread boundaries at every block size,
/// which is what makes a warp's charges independent of the block size.
const WARP: usize = 32;

/// Everything the interpreter knows about one warp before any column tile
/// is charged: the warp stream geometry, the gather-call live-lane counts
/// and the exact segment event sequences of the lane fold.
struct WarpPlan {
    /// Summed sector count of the five-plus metadata streams (BF-COO adds
    /// its per-product-mode bucket streams).
    stream_transactions: u64,
    /// Largest single stream's sector count (for the worst-access bound).
    stream_max: u64,
    /// The warp's factor-gather schedule.
    gather: GatherPlan,
    /// Output rows (segment ordinals) finalized by this warp, in program
    /// order (segmented-scan mode).
    final_rows: Vec<usize>,
    /// Output rows of the COO-style atomic events, in program order
    /// (atomic-ablation mode).
    atomic_rows: Vec<usize>,
}

/// One warp's charges for one column tile. None depends on the block size:
/// the block tail goes to a block's last warp when blocks are folded.
#[derive(Debug, Clone, Copy)]
struct WarpCharge {
    /// Warp cycles, block tail excluded.
    cycles: Interval,
    transactions: Interval,
    ideal_transactions: Interval,
    max_access_transactions: Interval,
    dram_bytes: Interval,
    /// Read-only cache probes (the block sums them).
    probes: Interval,
    /// Whether the warp issued any gather call.
    gathers: bool,
    atomics: u64,
    atomic_calls: u64,
    atomic_multiplicity_sum: u64,
}

/// Mirror of `fcoo::kernels::GatherLayout` at the envelope level: what the
/// certifier knows about each gather call's address batch.
enum GatherPlan {
    /// F-COO lane-strided batches: the live-lane count of each threadlen
    /// iteration. Targets are value-dependent, so per call the warp probes
    /// between `n_factors` and `live · n_factors` lines.
    Strided(Vec<usize>),
    /// BF-COO run-bucketed batches: per aligned 32-non-zero run, the run
    /// length and the **exact** distinct-row count of every product mode
    /// (the streamed bucket metadata). Each per-factor call probes between
    /// 1 and that run's distinct-row count — the tightening the format
    /// exists to license.
    Bucketed(Vec<(usize, Vec<u64>)>),
}

/// Certified counter envelope of one unified-kernel launch over `fcoo` at
/// factor rank `rank` under `cfg` — without simulating anything.
///
/// The envelope covers exactly what a traced F-COO
/// `AnyFormatDevice::launch_into` reports (the
/// per-factor rank is `rank` for every product mode, matching the tuner and
/// the golden suite). For the two-step baseline use [`certify_two_step`];
/// for chunked out-of-core pipelines use [`certify_chunked`].
///
/// # Panics
/// If the launch shape is invalid for `config` (same asserts as the
/// simulated launch: block size zero, not a warp multiple, or over the
/// device limits).
pub fn certify(
    config: &DeviceConfig,
    fcoo: &Fcoo,
    rank: usize,
    cfg: &LaunchConfig,
) -> CounterEnvelope {
    certify_one(config, &Header::of(fcoo, None), rank, cfg)
}

/// [`certify`] on a format-erased tensor. A BF-COO tensor runs the same
/// interpreter, but its per-run bucket metadata replaces the `live ·
/// n_factors` gather worst case with each run's exact distinct-row count,
/// and the bucket streams plus the per-run demux shuffles are charged
/// exactly. On skewed tensors (long fibers → small buckets) the time upper
/// bound tightens drastically; the format-aware planner selects on exactly
/// that bound.
pub fn certify_format(
    config: &DeviceConfig,
    format: &AnyFormat,
    rank: usize,
    cfg: &LaunchConfig,
) -> CounterEnvelope {
    match format {
        AnyFormat::Fcoo(fcoo) => certify(config, fcoo, rank, cfg),
        AnyFormat::BfCoo(bf) => {
            certify_one(config, &Header::of(&bf.base, Some(&bf.buckets)), rank, cfg)
        }
    }
}

/// The one-block-size case of [`certify_block_sizes`].
fn certify_one(
    config: &DeviceConfig,
    header: &Header,
    rank: usize,
    cfg: &LaunchConfig,
) -> CounterEnvelope {
    certify_block_sizes(config, header, rank, cfg, &[cfg.block_size])
        .pop()
        .expect("one envelope per block size")
}

/// The launch-shape asserts of `launch_with_shared`; returns the block's
/// shared allocation.
fn check_launch_shape(config: &DeviceConfig, bt: usize) -> usize {
    assert!(bt > 0, "block must have threads");
    assert!(
        bt.is_multiple_of(config.warp_size),
        "block size must be a whole number of warps"
    );
    assert!(
        bt <= config.max_threads_per_block,
        "block size {bt} exceeds device limit"
    );
    let shared_bytes = (bt / 32) * 8;
    assert!(
        shared_bytes <= config.shared_mem_per_sm,
        "shared allocation exceeds per-SM capacity"
    );
    shared_bytes
}

/// Certified envelopes of the launch over `header` at every block size in
/// `block_sizes` (the rest of `cfg` applies to all), in that order.
///
/// A warp's charges for a column tile do not depend on the block size —
/// warps start on 32-thread boundaries whatever the block — so one pass
/// charges every `(tile, warp)` pair once and each block size only folds
/// them: per block, sum its warps, add the block tail (scan combine,
/// barriers, fusion domino) to its last warp, then run the wave fold. All
/// charges are integer intervals, so every envelope is bit-identical to
/// certifying that block size alone.
pub(crate) fn certify_block_sizes(
    config: &DeviceConfig,
    header: &Header,
    rank: usize,
    cfg: &LaunchConfig,
    block_sizes: &[usize],
) -> Vec<CounterEnvelope> {
    let shared: Vec<usize> = block_sizes
        .iter()
        .map(|&bt| check_launch_shape(config, bt))
        .collect();
    let shape = KernelShape::for_op(header.op, header.product_modes, header.shape, rank);
    let partitions = header.partitions();
    let n_warps = partitions.div_ceil(WARP);
    let charges = charge_warps(config, header, &shape, cfg);
    let bucketed = header.buckets.is_some();
    let shape = &shape;
    block_sizes
        .iter()
        .zip(shared)
        .map(|(&bt, shared_bytes)| {
            let grid_x = partitions.div_ceil(bt);
            let warps_per_block = bt / config.warp_size;
            // Block tail: scan combine, barriers and the fusion domino.
            let mut tail = 0u64;
            if cfg.use_segscan {
                tail += scan::block_segscan_cycles(bt, config) * shape.tiling.tile as u64;
                tail += 2 * config.syncthreads_cycles;
                if cfg.use_fusion {
                    tail += config.adjacent_sync_cycles;
                }
            }
            // Blocks in x-major launch order (bIdx varies fastest) for the
            // wave fold; `charges` holds one row of warps per column tile.
            let blocks: Vec<BlockEnvelope> = charges
                .chunks(n_warps)
                .flat_map(|row| {
                    (0..grid_x).map(move |bx| {
                        let first = bx * bt / WARP;
                        let warps = &row[first..(first + warps_per_block).min(n_warps)];
                        fold_block(config, shape, cfg, bucketed, warps, tail)
                    })
                })
                .collect();

            // Occupancy, mirroring `launch_with_shared`.
            let mut concurrent = config.concurrent_blocks(bt);
            if let Some(per_sm) = config.shared_mem_per_sm.checked_div(shared_bytes) {
                concurrent = concurrent.min(per_sm.max(1) * config.num_sms);
            }
            let mut envelope = fold_launch(&blocks, concurrent, bt, blocks.len(), config);

            // Unfused variant: the follow-up carry-resolution kernel is
            // charged to `KernelStats` but never traced; keep its exact time
            // separately.
            if cfg.use_segscan && !cfg.use_fusion {
                let carry_block = BlockStats {
                    dram_bytes: (partitions * 8) as u64,
                    transactions: (partitions * 8).div_ceil(config.transaction_bytes) as u64,
                    max_warp_cycles: 64,
                    total_warp_cycles: 64,
                    warps: 1,
                    ..Default::default()
                };
                let carry = KernelStats::from_blocks(&[carry_block], bt, config);
                envelope.untraced_time_us = carry.time_us;
            }
            envelope
        })
        .collect()
}

/// One block's envelope from its warps' charges: the block tail accrues to
/// the last live warp, and the read-only cache, private to the block and
/// cold at entry, is bounded by the block's summed probes.
fn fold_block(
    config: &DeviceConfig,
    shape: &KernelShape,
    cfg: &LaunchConfig,
    bucketed: bool,
    warps: &[WarpCharge],
    tail: u64,
) -> BlockEnvelope {
    let mut env = BlockEnvelope {
        max_warp_cycles: Interval::ZERO,
        total_warp_cycles: Interval::ZERO,
        transactions: Interval::ZERO,
        ideal_transactions: Interval::ZERO,
        max_access_transactions: Interval::ZERO,
        dram_bytes: Interval::ZERO,
        cache_hits: Interval::ZERO,
        cache_misses: Interval::ZERO,
        atomics: 0,
        atomic_calls: 0,
        atomic_multiplicity_sum: 0,
        warps: warps.len() as u64,
    };
    let mut probes = Interval::ZERO;
    let mut any_gather = false;
    for (w, charge) in warps.iter().enumerate() {
        let mut cycles = charge.cycles;
        if w + 1 == warps.len() {
            cycles.add_exact(tail);
        }
        env.max_warp_cycles.max_with(cycles);
        env.total_warp_cycles.add(cycles);
        env.transactions.add(charge.transactions);
        env.ideal_transactions.add(charge.ideal_transactions);
        env.max_access_transactions
            .max_with(charge.max_access_transactions);
        env.dram_bytes.add(charge.dram_bytes);
        env.atomics += charge.atomics;
        env.atomic_calls += charge.atomic_calls;
        env.atomic_multiplicity_sum += charge.atomic_multiplicity_sum;
        probes.add(charge.probes);
        any_gather |= charge.gathers;
    }
    if cfg.use_rocache {
        // At least one compulsory miss per distinct factor buffer; at most
        // every probe misses.
        let n_factors = shape.n_factors as u64;
        let miss_lo = if any_gather { n_factors } else { 0 };
        env.cache_misses = Interval::new(miss_lo.min(probes.hi), probes.hi);
        env.cache_hits = Interval::new(0, probes.hi.saturating_sub(miss_lo));
        env.transactions.add(env.cache_misses);
        // CacheRead events carry no payload baseline: ideal = actual.
        env.ideal_transactions.add(env.cache_misses);
        if shape.factor_ws > config.l2_bytes {
            let line = config.readonly_line_bytes as u64;
            let dram_per_miss = (line / shape.tiling.factor_sharers.max(1)).max(4);
            env.dram_bytes.add(env.cache_misses.scale(dram_per_miss));
        }
        if any_gather {
            // The block's first probe batch is all-miss (cold cache, in-call
            // dedup), so the worst access sees ≥ n_factors — except under
            // the bucketed schedule, whose batches are per-factor and may
            // dedup to a single line.
            let cold_lo = if bucketed { 1 } else { n_factors };
            env.max_access_transactions
                .max_with(Interval::new(cold_lo, probes.hi));
        }
    }
    env
}

/// The plan of global warp `g`: its metadata streams, gather schedule and
/// the exact lane fold over the segment flags.
fn plan_warp(
    config: &DeviceConfig,
    header: &Header,
    shape: &KernelShape,
    cfg: &LaunchConfig,
    g: usize,
) -> WarpPlan {
    let threadlen = header.threadlen;
    let nnz = header.nnz;
    let partitions = header.partitions();
    let wft = g * WARP;
    let warp_nnz_start = wft * threadlen;
    let warp_nnz_end = ((wft + WARP) * threadlen).min(nnz);
    let span = warp_nnz_end - warp_nnz_start;
    let mut stream_transactions_total = 0u64;
    let mut stream_max = 0u64;
    // values + one stream per product-index column (same offsets).
    let value_t = stream_transactions(warp_nnz_start * 4, span * 4, config);
    stream_transactions_total += value_t * (1 + shape.n_factors) as u64;
    stream_max = stream_max.max(value_t);
    let mut charge_stream = |offset: usize, bytes: usize| {
        let t = stream_transactions(offset, bytes, config);
        stream_transactions_total += t;
        stream_max = stream_max.max(t);
    };
    // bit flags with the one-byte head lookahead.
    let bf_first = warp_nnz_start / 8;
    let bf_last = warp_nnz_end.min(nnz - 1) / 8;
    charge_stream(bf_first, bf_last - bf_first + 1);
    // partition pointers and segment-start flags.
    let threads_here = WARP.min(partitions - wft);
    charge_stream(wft * 4, threads_here * 4);
    let sf_first = wft / 8;
    let sf_last = (wft + threads_here - 1) / 8;
    charge_stream(sf_first, sf_last - sf_first + 1);

    let gather = match header.buckets {
        None => {
            // F-COO: live lanes per threadlen iteration.
            let mut gather_lives = Vec::new();
            for i in 0..threadlen {
                let live = (0..WARP)
                    .take_while(|&lane| (wft + lane) * threadlen + i < nnz)
                    .count();
                if live == 0 {
                    break;
                }
                gather_lives.push(live);
            }
            GatherPlan::Strided(gather_lives)
        }
        Some(buckets) => {
            // BF-COO streams one distinct-row-count array per product mode
            // alongside the flags; `warp_nnz_start` is a multiple of 32, so
            // the warp's runs coincide with the global aligned runs the
            // buckets index.
            let run_first = warp_nnz_start / BUCKET_RUN;
            let runs = span.div_ceil(BUCKET_RUN);
            for _ in buckets {
                charge_stream(run_first * 4, runs * 4);
            }
            let mut run_plans = Vec::with_capacity(runs);
            for r in 0..runs {
                let run_start = warp_nnz_start + r * BUCKET_RUN;
                let run_end = (run_start + BUCKET_RUN).min(warp_nnz_end);
                let ds = buckets
                    .iter()
                    .map(|column| column[run_first + r] as u64)
                    .collect();
                run_plans.push((run_end - run_start, ds));
            }
            GatherPlan::Bucketed(run_plans)
        }
    };

    // Exact lane fold over the segment flags.
    let mut final_rows = Vec::new();
    let mut atomic_rows = Vec::new();
    for lane in 0..WARP {
        let thread = wft + lane;
        let pstart = thread * threadlen;
        if pstart >= nnz {
            break;
        }
        let pend = ((thread + 1) * threadlen).min(nnz);
        let mut heads = header.partition_first_segment[thread] as usize;
        let mut has_open = false;
        for nz in pstart..pend {
            if header.bf.get(nz) {
                if has_open {
                    if cfg.use_segscan {
                        final_rows.push(heads - 1);
                    } else {
                        atomic_rows.push(heads - 1);
                    }
                }
                heads += 1;
            }
            has_open = true;
            if !cfg.use_segscan {
                atomic_rows.push(heads - 1);
            }
        }
        if has_open && cfg.use_segscan {
            final_rows.push(heads - 1);
        }
    }
    WarpPlan {
        stream_transactions: stream_transactions_total,
        stream_max,
        gather,
        final_rows,
        atomic_rows,
    }
}

/// Every `(column tile, warp)` charge of the launch over `header`, tile-major
/// (`charges[ty · warps + g]`): the one pass a block-size sweep shares.
fn charge_warps(
    config: &DeviceConfig,
    header: &Header,
    shape: &KernelShape,
    cfg: &LaunchConfig,
) -> Vec<WarpCharge> {
    let n_warps = header.partitions().div_ceil(WARP);
    let ColumnTiling { columns, tile, .. } = shape.tiling;
    let grid_y = shape.tiling.grid_y();

    // Gather-call cost constants.
    let miss_cycles = if shape.factor_ws <= config.l2_bytes {
        config.l2_latency_cycles
    } else {
        config.rocache_miss_cycles
    };
    let line = config.readonly_line_bytes;
    let write_sharers = shape.tiling.write_sharers;
    let tile_cycles = tile as u64;
    // Each factor's wide-load line count per non-zero for every tile, and
    // their sums over the factors.
    let tile_lines: Vec<Vec<(u64, u64)>> = (0..grid_y)
        .map(|ty| {
            (0..shape.n_factors)
                .map(|p| shape.tile_lines(p, ty, line))
                .collect()
        })
        .collect();

    let blank = WarpCharge {
        cycles: Interval::ZERO,
        transactions: Interval::ZERO,
        ideal_transactions: Interval::ZERO,
        max_access_transactions: Interval::ZERO,
        dram_bytes: Interval::ZERO,
        probes: Interval::ZERO,
        gathers: false,
        atomics: 0,
        atomic_calls: 0,
        atomic_multiplicity_sum: 0,
    };
    let mut charges = vec![blank; grid_y * n_warps];
    // Output indices of one warp's finalizations or atomics (reused).
    let mut indices: Vec<usize> = Vec::new();
    for g in 0..n_warps {
        let wp = plan_warp(config, header, shape, cfg, g);
        for (ty, lines) in tile_lines.iter().enumerate() {
            let col0 = ty * tile;
            let lines_lo: u64 = lines.iter().map(|l| l.0).sum();
            let lines_hi: u64 = lines.iter().map(|l| l.1).sum();
            let l2_hot = ty > 0;
            let c = &mut charges[ty * n_warps + g];
            let mut cycles = Interval::ZERO;
            // Metadata streams: transactions and issue cycles always; DRAM
            // only for the bIdy = 0 sibling (the rest hit L2).
            c.transactions.add_exact(wp.stream_transactions);
            c.ideal_transactions.add_exact(wp.stream_transactions);
            if !l2_hot {
                c.dram_bytes
                    .add_exact(wp.stream_transactions * config.transaction_bytes as u64);
            }
            cycles.add_exact(wp.stream_transactions * config.mem_issue_cycles);
            c.max_access_transactions
                .max_with(Interval::exact(wp.stream_max));

            // Factor gathers: the sole interval source.
            match &wp.gather {
                GatherPlan::Strided(lives) => {
                    for &live in lives {
                        c.gathers = true;
                        let live = live as u64;
                        let per_call = Interval::new(lines_lo, live * lines_hi);
                        c.probes.add(per_call);
                        if cfg.use_rocache {
                            // Per probe: 1 hit cycle … one miss fill.
                            cycles.add(Interval::new(per_call.lo, per_call.hi * miss_cycles));
                        } else {
                            // Plain coalesced loads of a reused working set.
                            cycles.add(per_call.scale(config.mem_issue_cycles));
                            if shape.factor_ws <= config.l2_bytes {
                                cycles.add_exact(config.l2_latency_cycles);
                            } else {
                                c.dram_bytes
                                    .add(per_call.scale(config.transaction_bytes as u64));
                            }
                            c.transactions.add(per_call);
                            let ideal = |lanes: u64| {
                                ideal_lane_transactions((live * lanes) as usize, config)
                            };
                            c.ideal_transactions.add(Interval::new(
                                ideal(lines_lo).min(per_call.lo),
                                ideal(lines_hi).min(per_call.hi),
                            ));
                        }
                        c.max_access_transactions.max_with(per_call);
                        cycles.add_exact(shape.compute_per_element * tile_cycles);
                    }
                }
                GatherPlan::Bucketed(runs) => {
                    // One batch per factor per run: the bucket metadata
                    // bounds each batch's distinct lines by the run's exact
                    // distinct-row count, so `live · n_factors` never
                    // appears — this is where BF-COO's certified upper bound
                    // beats F-COO's.
                    for (run_len, ds) in runs {
                        c.gathers = true;
                        for (&d, &(lo, hi)) in ds.iter().zip(lines) {
                            // At most `hi` lines per distinct row; past the
                            // read-only cache's 32-tag in-call dedup window
                            // every address may probe.
                            let distinct = d * hi;
                            let probes_hi = if distinct <= 32 {
                                distinct
                            } else {
                                *run_len as u64 * hi
                            };
                            let per_call = Interval::new(lo, probes_hi);
                            if cfg.use_rocache {
                                c.probes.add(per_call);
                                cycles.add(Interval::new(per_call.lo, per_call.hi * miss_cycles));
                            } else {
                                cycles.add(per_call.scale(config.mem_issue_cycles));
                                if shape.factor_ws <= config.l2_bytes {
                                    cycles.add_exact(config.l2_latency_cycles);
                                } else {
                                    c.dram_bytes
                                        .add(per_call.scale(config.transaction_bytes as u64));
                                }
                                c.transactions.add(per_call);
                                let ideal = ideal_lane_transactions(*run_len * hi as usize, config);
                                c.ideal_transactions
                                    .add(Interval::new(1, ideal.min(per_call.hi)));
                            }
                            c.max_access_transactions.max_with(per_call);
                        }
                        // Demux shuffles and the product FLOPs, exactly as
                        // narrated: once per run.
                        cycles.add_exact(BUCKET_SHUFFLE_OPS * config.shuffle_cycles);
                        cycles.add_exact(shape.compute_per_element * tile_cycles);
                    }
                }
            }

            // Segmented-scan stages and batched output traffic.
            if cfg.use_segscan {
                cycles.add_exact(scan::warp_segscan_cycles(config) * tile_cycles);
                indices.clear();
                for &row in &wp.final_rows {
                    let base = row * columns + col0;
                    indices.extend(base..base + tile);
                }
                for chunk in indices.chunks(WARP) {
                    let t = batch_transactions(chunk, config);
                    c.transactions.add_exact(t);
                    c.dram_bytes.add_exact(
                        (t * config.transaction_bytes as u64 / write_sharers.max(1)).max(t * 4),
                    );
                    cycles.add_exact(t * config.mem_issue_cycles);
                    let ideal = ideal_lane_transactions(chunk.len(), config).min(t);
                    c.ideal_transactions.add_exact(ideal);
                    c.max_access_transactions.max_with(Interval::exact(t));
                }
            }

            // COO-style frontier atomics (exact: indices are known). Issued
            // one tile column after another, each in the untiled kernel's
            // order.
            indices.clear();
            for col in col0..col0 + tile {
                indices.extend(wp.atomic_rows.iter().map(|&row| row * columns + col));
            }
            for chunk in indices.chunks(WARP) {
                c.atomics += chunk.len() as u64;
                let mut max_multiplicity = 0u64;
                let mut seen: Vec<(usize, u64)> = Vec::with_capacity(chunk.len());
                for &index in chunk {
                    match seen.iter_mut().find(|(i, _)| *i == index) {
                        Some((_, count)) => *count += 1,
                        None => seen.push((index, 1)),
                    }
                }
                for &(_, count) in &seen {
                    max_multiplicity = max_multiplicity.max(count);
                }
                let conflict = config.atomic_cycles * max_multiplicity;
                cycles.add_exact(conflict);
                let t = batch_transactions(chunk, config);
                c.transactions.add_exact(t);
                c.dram_bytes.add_exact(t * config.transaction_bytes as u64);
                cycles.add_exact(t * config.mem_issue_cycles);
                let ideal = ideal_lane_transactions(chunk.len(), config).min(t);
                c.ideal_transactions.add_exact(ideal);
                c.max_access_transactions.max_with(Interval::exact(t));
                c.atomic_calls += 1;
                c.atomic_multiplicity_sum += max_multiplicity;
            }
            c.cycles = cycles;
        }
    }
    charges
}

/// Folds per-block envelopes into a launch envelope by running the exact
/// wave fold of `KernelStats::from_blocks_with_concurrency` at both interval
/// endpoints (the fold is monotone in every per-block counter, so the
/// all-lo / all-hi evaluations bound every concrete outcome; an all-exact
/// launch reproduces the simulated time bit for bit).
fn fold_launch(
    blocks: &[BlockEnvelope],
    concurrent: usize,
    block_threads: usize,
    total_blocks: usize,
    config: &DeviceConfig,
) -> CounterEnvelope {
    let mut env = CounterEnvelope::empty();
    env.launches = 1;
    env.blocks = total_blocks as u64;
    env.launched_warps = (total_blocks * block_threads / config.warp_size.max(1)) as u64;
    let concurrent = concurrent.max(1);
    let mut time_lo = config.launch_overhead_us;
    let mut time_hi = config.launch_overhead_us;
    let mut waves = 0u64;
    for wave in blocks.chunks(concurrent) {
        waves += 1;
        let compute_lo = wave
            .iter()
            .map(|b| compute_time_us(b.max_warp_cycles.lo, b.total_warp_cycles.lo, config))
            .fold(0.0f64, f64::max);
        let compute_hi = wave
            .iter()
            .map(|b| compute_time_us(b.max_warp_cycles.hi, b.total_warp_cycles.hi, config))
            .fold(0.0f64, f64::max);
        let bytes_lo: u64 = wave.iter().map(|b| b.dram_bytes.lo).sum();
        let bytes_hi: u64 = wave.iter().map(|b| b.dram_bytes.hi).sum();
        let memory_lo = bytes_lo as f64 / (config.mem_bandwidth_gbs * 1e3);
        let memory_hi = bytes_hi as f64 / (config.mem_bandwidth_gbs * 1e3);
        time_lo += compute_lo.max(memory_lo);
        time_hi += compute_hi.max(memory_hi);
    }
    if blocks.is_empty() {
        time_lo = config.launch_overhead_us;
        time_hi = config.launch_overhead_us;
    }
    env.waves = waves;
    env.time_us = TimeBounds {
        lo: time_lo,
        hi: time_hi,
    };
    for b in blocks {
        env.active_warps += b.warps;
        env.transactions.add(b.transactions);
        env.ideal_transactions.add(b.ideal_transactions);
        env.max_access_transactions
            .max_with(b.max_access_transactions);
        env.dram_bytes.add(b.dram_bytes);
        env.cache_hits.add(b.cache_hits);
        env.cache_misses.add(b.cache_misses);
        env.atomics += b.atomics;
        env.atomic_calls += b.atomic_calls;
        env.atomic_multiplicity_sum += b.atomic_multiplicity_sum;
    }
    env
}

/// Certified envelopes of the two-step SpMTTKRP baseline, as
/// [`certify_two_step`] returns them.
#[derive(Debug, Clone)]
pub struct TwoStepEnvelope {
    /// Both launches, summed as a traced two-step run merges them.
    pub total: CounterEnvelope,
    /// The step-2 fiber reduction alone. Every counter is exact, so its
    /// `transactions` over `ideal_transactions` measures exactly how far
    /// the launch, dominated by its strided intermediate gather, is from
    /// coalesced (paper Fig. 3a).
    pub step2: CounterEnvelope,
}

/// Certified envelope of the two-step SpMTTKRP baseline
/// (`fcoo::spmttkrp_two_step_unified`): the step-1 unified SpTTM envelope
/// plus an **exact** mirror of the step-2 fiber reduction, whose whole
/// address trace is determined by the step-1 format's segment coordinates.
/// Returns `None` for non-3-order tensors (the baseline does not apply).
pub fn certify_two_step(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    mode: usize,
    rank: usize,
    threadlen: usize,
    cfg: &LaunchConfig,
) -> Option<TwoStepEnvelope> {
    if tensor.order() != 3 {
        return None;
    }
    let product_modes: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
    let (first_product, second_product) = (product_modes[0], product_modes[1]);
    let fcoo = Fcoo::from_coo(
        tensor,
        TensorOp::SpTtm {
            mode: second_product,
        },
        threadlen,
    );
    let mut total = certify(config, &fcoo, rank, cfg);

    // Step-2 host bookkeeping, reproduced from the header: the intermediate
    // fibers are the step-1 segments, their coordinates the segment
    // coordinate columns (index modes in ascending order).
    let nfibs = fcoo.segments();
    let index_modes: Vec<usize> = (0..3).filter(|&m| m != second_product).collect();
    let out_pos = index_modes
        .iter()
        .position(|&m| m == mode)
        .expect("output mode is an index mode");
    let b_pos = index_modes
        .iter()
        .position(|&m| m == first_product)
        .expect("first product mode is an index mode");
    let mut order: Vec<usize> = (0..nfibs).collect();
    order.sort_by_key(|&fib| {
        (
            fcoo.segment_coords[out_pos][fib],
            fcoo.segment_coords[b_pos][fib],
        )
    });
    let out_rows: Vec<usize> = order
        .iter()
        .map(|&fib| fcoo.segment_coords[out_pos][fib] as usize)
        .collect();
    let b_rows: Vec<usize> = order
        .iter()
        .map(|&fib| fcoo.segment_coords[b_pos][fib] as usize)
        .collect();
    let b_ws = tensor.shape()[first_product] * rank * 4;

    let step2 = certify_fiber_reduction(
        config, nfibs, &out_rows, &b_rows, rank, b_ws, threadlen, cfg,
    );
    total.accumulate(&step2);
    Some(TwoStepEnvelope { total, step2 })
}

/// Exact envelope of the step-2 fiber reduction launch (every address is
/// known once `out_rows`/`b_rows` are fixed, so every interval collapses).
#[allow(clippy::too_many_arguments)]
fn certify_fiber_reduction(
    config: &DeviceConfig,
    nfibs: usize,
    out_rows: &[usize],
    b_rows: &[usize],
    rank: usize,
    b_ws: usize,
    threadlen: usize,
    cfg: &LaunchConfig,
) -> CounterEnvelope {
    let bt = cfg.block_size;
    let warp = config.warp_size;
    let partitions = nfibs.div_ceil(threadlen);
    let grid_x = partitions.div_ceil(bt);
    let warps_per_block = bt / warp;
    let write_sharers = rank.min(8) as u64;
    let mut blocks: Vec<BlockEnvelope> = Vec::with_capacity(grid_x * rank);
    for col in 0..rank {
        for bx in 0..grid_x {
            let mut env = BlockEnvelope {
                max_warp_cycles: Interval::ZERO,
                total_warp_cycles: Interval::ZERO,
                transactions: Interval::ZERO,
                ideal_transactions: Interval::ZERO,
                max_access_transactions: Interval::ZERO,
                dram_bytes: Interval::ZERO,
                cache_hits: Interval::ZERO,
                cache_misses: Interval::ZERO,
                atomics: 0,
                atomic_calls: 0,
                atomic_multiplicity_sum: 0,
                warps: 0,
            };
            let mut last_live_warp_cycles: Option<Interval> = None;
            for w in 0..warps_per_block {
                let wft = bx * bt + w * warp;
                let warp_fib_start = wft * threadlen;
                if warp_fib_start >= nfibs {
                    break;
                }
                env.warps += 1;
                let mut cycles = 0u64;
                let span = (warp * threadlen).min(nfibs - warp_fib_start);
                let rows_first = warp_fib_start.saturating_sub(1);
                let rows_last = (warp_fib_start + span).min(nfibs - 1);
                let charge_stream =
                    |env: &mut BlockEnvelope, cycles: &mut u64, offset: usize, bytes: usize| {
                        let t = stream_transactions(offset, bytes, config);
                        env.transactions.add_exact(t);
                        env.ideal_transactions.add_exact(t);
                        if col == 0 {
                            env.dram_bytes
                                .add_exact(t * config.transaction_bytes as u64);
                        }
                        *cycles += t * config.mem_issue_cycles;
                        env.max_access_transactions.max_with(Interval::exact(t));
                    };
                charge_stream(
                    &mut env,
                    &mut cycles,
                    rows_first * 4,
                    (rows_last - rows_first + 1) * 4,
                );
                charge_stream(&mut env, &mut cycles, warp_fib_start * 4, span * 4);

                for i in 0..threadlen {
                    let mut y_indices = Vec::with_capacity(warp);
                    let mut b_indices = Vec::with_capacity(warp);
                    for lane in 0..warp {
                        let fib = (wft + lane) * threadlen + i;
                        if fib < nfibs {
                            y_indices.push(fib * rank + col);
                            b_indices.push(b_rows[fib] * rank + col);
                        }
                    }
                    if y_indices.is_empty() {
                        break;
                    }
                    // Intermediate stream: plain global loads with DRAM.
                    let ty = batch_transactions(&y_indices, config);
                    env.transactions.add_exact(ty);
                    env.dram_bytes
                        .add_exact(ty * config.transaction_bytes as u64);
                    cycles += ty * config.mem_issue_cycles;
                    env.ideal_transactions
                        .add_exact(ideal_lane_transactions(y_indices.len(), config).min(ty));
                    env.max_access_transactions.max_with(Interval::exact(ty));
                    // Factor reads: reused working set.
                    let tb = batch_transactions(&b_indices, config);
                    env.transactions.add_exact(tb);
                    cycles += tb * config.mem_issue_cycles;
                    if b_ws <= config.l2_bytes {
                        cycles += config.l2_latency_cycles;
                    } else {
                        env.dram_bytes
                            .add_exact(tb * config.transaction_bytes as u64);
                    }
                    env.ideal_transactions
                        .add_exact(ideal_lane_transactions(b_indices.len(), config).min(tb));
                    env.max_access_transactions.max_with(Interval::exact(tb));
                    cycles += 2;
                }

                // Lane fold over the out-row segments: one finalize per row
                // change plus the trailing segment, per live lane.
                let mut write_indices: Vec<usize> = Vec::new();
                for lane in 0..warp {
                    let thread = wft + lane;
                    let pstart = thread * threadlen;
                    if pstart >= nfibs {
                        break;
                    }
                    let pend = ((thread + 1) * threadlen).min(nfibs);
                    let mut current_row = out_rows[pstart];
                    for &row in &out_rows[pstart..pend] {
                        if row != current_row {
                            write_indices.push(current_row * rank + col);
                            current_row = row;
                        }
                    }
                    write_indices.push(current_row * rank + col);
                }
                for chunk in write_indices.chunks(warp) {
                    let t = batch_transactions(chunk, config);
                    env.transactions.add_exact(t);
                    env.dram_bytes.add_exact(
                        (t * config.transaction_bytes as u64 / write_sharers.max(1)).max(t * 4),
                    );
                    cycles += t * config.mem_issue_cycles;
                    env.ideal_transactions
                        .add_exact(ideal_lane_transactions(chunk.len(), config).min(t));
                    env.max_access_transactions.max_with(Interval::exact(t));
                }
                cycles += scan::warp_segscan_cycles(config);
                let interval = Interval::exact(cycles);
                last_live_warp_cycles = Some(interval);
                env.max_warp_cycles.max_with(interval);
                env.total_warp_cycles.add(interval);
            }
            // The fusion domino is charged after the warp loop, accruing to
            // the last open warp.
            if cfg.use_fusion {
                if let Some(last) = last_live_warp_cycles {
                    let bumped = Interval::exact(last.lo + config.adjacent_sync_cycles);
                    // Remove the last warp's contribution and re-add bumped.
                    env.total_warp_cycles = Interval::new(
                        env.total_warp_cycles.lo - last.lo + bumped.lo,
                        env.total_warp_cycles.hi - last.hi + bumped.hi,
                    );
                    env.max_warp_cycles.max_with(bumped);
                }
            }
            blocks.push(env);
        }
    }
    // Step 2 launches without shared memory: occupancy is thread-limited.
    let concurrent = config.concurrent_blocks(bt);
    fold_launch(&blocks, concurrent, bt, grid_x * rank, config)
}

/// Certified launch envelope of each chunk of an out-of-core chunked run
/// in format `kind`, in stream order: each chunk certified on its
/// self-contained extracted format. The chunk boundaries live in the
/// shared F-COO payload; per-chunk bucket metadata is re-derived from each
/// extracted chunk (exactly what the out-of-core executor uploads), so the
/// per-chunk envelopes match the traced launches.
pub fn certify_chunks(
    config: &DeviceConfig,
    kind: FormatKind,
    fcoo: &Fcoo,
    plan: &ChunkPlan,
    rank: usize,
    cfg: &LaunchConfig,
) -> Vec<CounterEnvelope> {
    certify_chunks_at(config, kind, fcoo, plan, rank, cfg, &[cfg.block_size])
        .into_iter()
        .map(|mut per_block| per_block.pop().expect("one envelope per block size"))
        .collect()
}

/// [`certify_chunks`] at every block size in `block_sizes` (the rest of
/// `cfg` applies to all): per chunk, in stream order, one envelope per
/// block size, in that order. Each chunk is extracted and its warps
/// charged once for all the block sizes, and every envelope is
/// bit-identical to certifying that block size alone.
pub fn certify_chunks_at(
    config: &DeviceConfig,
    kind: FormatKind,
    fcoo: &Fcoo,
    plan: &ChunkPlan,
    rank: usize,
    cfg: &LaunchConfig,
    block_sizes: &[usize],
) -> Vec<Vec<CounterEnvelope>> {
    plan.chunks
        .iter()
        .map(|desc| {
            let chunk = fcoo::chunk::extract(fcoo, desc);
            let buckets = (kind == FormatKind::BfCoo).then(|| fcoo::bucket_counts(&chunk));
            let header = Header::of(&chunk, buckets.as_deref());
            certify_block_sizes(config, &header, rank, cfg, block_sizes)
        })
        .collect()
}

/// Certified whole-pipeline envelope of an out-of-core chunked run in
/// format `kind` (`ooc::run_chunked`): the sum of the [`certify_chunks`]
/// envelopes. The measured [`KernelCounters`] of a traced chunked run
/// satisfy the summed bounds because chunk launches execute back to back
/// and [`KernelCounters::merge`] is a field-wise sum.
pub fn certify_chunked(
    config: &DeviceConfig,
    kind: FormatKind,
    fcoo: &Fcoo,
    plan: &ChunkPlan,
    rank: usize,
    cfg: &LaunchConfig,
) -> CounterEnvelope {
    let mut envelope = CounterEnvelope::empty();
    for chunk in certify_chunks(config, kind, fcoo, plan, rank, cfg) {
        envelope.accumulate(&chunk);
    }
    envelope
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcoo::{AnyFormatDevice, BfCoo, DeviceMatrix, FcooDevice};
    use gpu_sim::GpuDevice;
    use std::sync::Arc;
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::DenseMatrix;

    const RANK: usize = 8;

    fn traced_counters(
        tensor: &SparseTensorCoo,
        op: TensorOp,
        threadlen: usize,
        cfg: &LaunchConfig,
    ) -> KernelCounters {
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(tensor, op, threadlen);
        let on_device = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let factors: Vec<DeviceMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| {
                let host = DenseMatrix::random(n, RANK, 1 + m as u64);
                DeviceMatrix::upload(device.memory(), &host).unwrap()
            })
            .collect();
        device.start_tracing();
        match op {
            TensorOp::SpTtm { mode } => {
                fcoo::spttm(&device, &on_device, &factors[mode], cfg).unwrap();
            }
            TensorOp::SpMttkrp { .. } => {
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                fcoo::spmttkrp(&device, &on_device, &refs, cfg).unwrap();
            }
            TensorOp::SpTtmc { .. } => {
                let pm = &on_device.classification.product_modes;
                let refs: Vec<&DeviceMatrix> = pm.iter().map(|&m| &factors[m]).collect();
                fcoo::spttmc_norder(&device, &on_device, &refs, cfg).unwrap();
            }
        }
        let log = device.stop_tracing();
        log.counters()
    }

    #[test]
    fn envelope_contains_traced_unified_runs() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        for op in [
            TensorOp::SpTtm { mode: 0 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 0 },
        ] {
            for &(block, threadlen) in &[(64usize, 8usize), (128, 8), (128, 16)] {
                let cfg = LaunchConfig::with_block_size(block);
                let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
                let envelope = certify(&config, &fcoo, RANK, &cfg);
                let measured = traced_counters(&tensor, op, threadlen, &cfg);
                assert_eq!(
                    envelope.violations(&measured),
                    Vec::<String>::new(),
                    "{op:?} B{block} T{threadlen}"
                );
            }
        }
    }

    #[test]
    fn atomic_ablation_envelope_is_exact_on_atomics() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let cfg = LaunchConfig {
            block_size: 128,
            use_segscan: false,
            use_fusion: false,
            ..LaunchConfig::default()
        };
        let op = TensorOp::SpMttkrp { mode: 0 };
        let fcoo = Fcoo::from_coo(&tensor, op, 8);
        let envelope = certify(&config, &fcoo, RANK, &cfg);
        let measured = traced_counters(&tensor, op, 8, &cfg);
        assert_eq!(envelope.violations(&measured), Vec::<String>::new());
        assert!(envelope.atomics > 0);
        assert_eq!(envelope.atomics, measured.atomics);
        assert_eq!(envelope.atomic_calls, measured.atomic_calls);
        assert_eq!(
            envelope.atomic_multiplicity_sum,
            measured.atomic_multiplicity_sum
        );
    }

    #[test]
    fn two_step_envelope_contains_traced_pipeline() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let cfg = LaunchConfig::with_block_size(64);
        let envelope = certify_two_step(&config, &tensor, 0, RANK, 8, &cfg)
            .expect("3-order tensor")
            .total;
        let device = GpuDevice::titan_x();
        let hosts: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
            .collect();
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        device.start_tracing();
        fcoo::spmttkrp_two_step_unified(&device, &tensor, 0, &refs, 8, &cfg).unwrap();
        let measured = device.stop_tracing().counters();
        assert_eq!(envelope.violations(&measured), Vec::<String>::new());
        assert_eq!(envelope.launches, 2);
    }

    #[test]
    fn chunked_envelope_contains_traced_chunked_run() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let cfg = LaunchConfig::with_block_size(128);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let budget = (fcoo.storage().total_bytes() / 4).max(1);
        let plan = fcoo::chunk::split(&fcoo, budget);
        let envelope = certify_chunked(&config, FormatKind::Fcoo, &fcoo, &plan, RANK, &cfg);
        let device = GpuDevice::titan_x();
        let hosts: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
            .collect();
        device.start_tracing();
        ooc_run(&device, FormatKind::Fcoo, &fcoo, &plan, &hosts, &cfg);
        let measured = device.stop_tracing().counters();
        assert_eq!(envelope.violations(&measured), Vec::<String>::new());
        assert_eq!(envelope.launches, plan.len() as u64);
    }

    // The ooc crate depends on analyzer would be a cycle the other way; the
    // chunked execution loop is small enough to inline for the test.
    fn ooc_run(
        device: &GpuDevice,
        kind: FormatKind,
        fcoo: &Fcoo,
        plan: &ChunkPlan,
        hosts: &[DenseMatrix],
        cfg: &LaunchConfig,
    ) {
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        for desc in &plan.chunks {
            let chunk = fcoo::chunk::extract(fcoo, desc);
            let on_device = AnyFormatDevice::upload_as(device.memory(), kind, &chunk).unwrap();
            let out = device
                .memory()
                .alloc_zeroed::<f32>(chunk.segments() * RANK)
                .unwrap();
            on_device.launch_into(device, &refs, cfg, &out);
        }
    }

    fn traced_bfcoo_counters(
        tensor: &SparseTensorCoo,
        op: TensorOp,
        threadlen: usize,
        cfg: &LaunchConfig,
    ) -> KernelCounters {
        let device = GpuDevice::titan_x();
        let bf = BfCoo::from_coo(tensor, op, threadlen);
        let on_device = AnyFormat::BfCoo(Arc::new(bf))
            .upload(device.memory())
            .unwrap();
        let factors: Vec<DeviceMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| {
                let host = DenseMatrix::random(n, RANK, 1 + m as u64);
                DeviceMatrix::upload(device.memory(), &host).unwrap()
            })
            .collect();
        let refs: Vec<&DeviceMatrix> = op
            .factor_modes(tensor.order())
            .into_iter()
            .map(|m| &factors[m])
            .collect();
        device.start_tracing();
        on_device.launch(&device, &refs, cfg).unwrap();
        device.stop_tracing().counters()
    }

    #[test]
    fn bfcoo_envelope_contains_traced_bucketed_runs() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        for op in [
            TensorOp::SpTtm { mode: 0 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 0 },
        ] {
            for &(block, threadlen) in &[(64usize, 8usize), (128, 16)] {
                let cfg = LaunchConfig::with_block_size(block);
                let bf = AnyFormat::build(FormatKind::BfCoo, &tensor, op, threadlen);
                let envelope = certify_format(&config, &bf, RANK, &cfg);
                let measured = traced_bfcoo_counters(&tensor, op, threadlen, &cfg);
                assert_eq!(
                    envelope.violations(&measured),
                    Vec::<String>::new(),
                    "{op:?} B{block} T{threadlen}"
                );
            }
        }
    }

    #[test]
    fn bfcoo_envelope_is_sound_without_the_readonly_cache() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let cfg = LaunchConfig {
            block_size: 128,
            use_rocache: false,
            ..LaunchConfig::default()
        };
        let bf = AnyFormat::build(FormatKind::BfCoo, &tensor, op, 8);
        let envelope = certify_format(&config, &bf, RANK, &cfg);
        let measured = traced_bfcoo_counters(&tensor, op, 8, &cfg);
        assert_eq!(envelope.violations(&measured), Vec::<String>::new());
    }

    #[test]
    fn certify_format_dispatches_both_formats() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let cfg = LaunchConfig::with_block_size(64);
        for kind in FormatKind::ALL {
            let format = AnyFormat::build(kind, &tensor, op, 8);
            let envelope = certify_format(&config, &format, RANK, &cfg);
            assert!(envelope.time_us.hi >= envelope.time_us.lo);
            assert!(envelope.blocks > 0);
        }
    }

    #[test]
    fn chunk_envelopes_at_several_block_sizes_equal_each_chunk_certified_alone() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let cfg = LaunchConfig::default();
        let blocks = [64, 128, 256];
        for threadlen in [4, 8] {
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
            let plan = fcoo::chunk::split(&fcoo, (fcoo.storage().total_bytes() / 3).max(1));
            for kind in FormatKind::ALL {
                let at = certify_chunks_at(&config, kind, &fcoo, &plan, RANK, &cfg, &blocks);
                assert_eq!(at.len(), plan.len());
                for (desc, per_block) in plan.chunks.iter().zip(&at) {
                    let chunk =
                        AnyFormat::from_fcoo(kind, Arc::new(fcoo::chunk::extract(&fcoo, desc)));
                    for (&block_size, envelope) in blocks.iter().zip(per_block) {
                        let cfg = LaunchConfig::with_block_size(block_size);
                        let alone = certify_format(&config, &chunk, RANK, &cfg);
                        assert_eq!(
                            format!("{envelope:?}"),
                            format!("{alone:?}"),
                            "{kind} T{threadlen} B{block_size} chunk {}",
                            desc.index
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_bfcoo_envelope_contains_traced_chunked_run() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 2017);
        let config = DeviceConfig::titan_x();
        let cfg = LaunchConfig::with_block_size(128);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let budget = (fcoo.storage().total_bytes() / 4).max(1);
        let plan = fcoo::chunk::split(&fcoo, budget);
        let envelope = certify_chunked(&config, FormatKind::BfCoo, &fcoo, &plan, RANK, &cfg);
        let device = GpuDevice::titan_x();
        let hosts: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
            .collect();
        device.start_tracing();
        ooc_run(&device, FormatKind::BfCoo, &fcoo, &plan, &hosts, &cfg);
        let measured = device.stop_tracing().counters();
        assert_eq!(envelope.violations(&measured), Vec::<String>::new());
        assert_eq!(envelope.launches, plan.len() as u64);
    }

    #[test]
    fn long_fiber_skew_tightens_the_bfcoo_bound_below_fcoo() {
        // The format-selection criterion: on a long-fiber power-law tensor
        // the exact buckets collapse the gather worst case, so BF-COO's
        // certified time upper bound lands strictly below F-COO's at the
        // same configuration.
        let mut entries = Vec::new();
        for s in 0..200u32 {
            let len = ((8_000.0 / f64::powf(s as f64 + 1.0, 1.3)) as u32).clamp(1, 1000);
            for t in 0..len {
                entries.push((vec![s, (s * 7) % 300, (t * 13) % 1000], 1.0f32));
            }
        }
        let tensor = SparseTensorCoo::from_entries(vec![200, 300, 1000], &entries);
        let config = DeviceConfig::titan_x();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let cfg = LaunchConfig::with_block_size(128);
        let bf = BfCoo::from_coo(&tensor, op, 16);
        let fc_hi = certify(&config, &bf.base, RANK, &cfg).stats_time_us().hi;
        let bf = AnyFormat::BfCoo(Arc::new(bf));
        let bf_hi = certify_format(&config, &bf, RANK, &cfg).stats_time_us().hi;
        assert!(
            bf_hi < fc_hi,
            "bucketed hi {bf_hi} must undercut strided hi {fc_hi} on skew"
        );
    }

    #[test]
    fn one_fold_per_block_size_equals_certifying_each_alone() {
        // Every counter, under every ablation: the sweep's shared charges
        // carry no state from one block size's fold into the next.
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 21);
        let config = DeviceConfig::titan_x();
        let blocks = [1024, 32, 256, 64, 512, 128];
        for op in [
            TensorOp::SpTtm { mode: 1 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 2 },
        ] {
            for threadlen in [3, 8] {
                let bf = BfCoo::from_coo(&tensor, op, threadlen);
                for buckets in [None, Some(&bf.buckets[..])] {
                    let header = Header::of(&bf.base, buckets);
                    for ablation in 0..4 {
                        let cfg = LaunchConfig {
                            use_rocache: ablation != 1,
                            use_segscan: ablation != 2,
                            use_fusion: ablation != 3,
                            ..LaunchConfig::default()
                        };
                        let swept = certify_block_sizes(&config, &header, RANK, &cfg, &blocks);
                        for (&block_size, envelope) in blocks.iter().zip(&swept) {
                            let alone = certify_one(
                                &config,
                                &header,
                                RANK,
                                &LaunchConfig { block_size, ..cfg },
                            );
                            assert_eq!(
                                format!("{envelope:?}"),
                                format!("{alone:?}"),
                                "{op:?} T{threadlen} B{block_size} ablation {ablation}"
                            );
                        }
                    }
                }
            }
        }
    }
}
