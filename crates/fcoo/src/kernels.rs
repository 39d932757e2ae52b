//! Unified one-shot GPU kernels over F-COO (paper §IV-C/D).
//!
//! All three operations share one skeleton, which is the point of the
//! unified method:
//!
//! * the grid is two-dimensional with **one-dimensional blocks** (Fig. 4):
//!   `bIdx` walks partitions of non-zeros, `bIdy` walks **tiles of
//!   consecutive output columns** ([`ColumnTiling`]), so the block shape
//!   never depends on the rank. A tile is one column except where more
//!   output columns read the same factor lines than can share one line fill
//!   — SpTTMc's Kronecker columns — and there a block computes as many
//!   columns as keep the readers of each line within the sharing limit;
//! * each thread owns `threadlen` consecutive non-zeros, computes the
//!   per-non-zero product (`val × U(k,:)` for SpTTM, `val × B(j,:) ∗ C(k,:)`
//!   for SpMTTKRP, `val × (U₂(j,:) ⊗ U₃(k,:))` for SpTTMc) and reduces along
//!   `bf` segments;
//! * each warp streams its metadata as contiguous ranges: values, product
//!   indices, flags and partition pointers. The `bIdy = 0` block fetches
//!   them from DRAM and its column siblings hit L2 (§IV-D's data reuse);
//! * segments are finalized with a **segmented scan** (warp shuffles + one
//!   shared-memory stage), not atomics: segments fully inside a partition
//!   are written exactly once; segments spanning partition/block boundaries
//!   are carried via adjacent synchronization (fused kernels) and account
//!   for at most two extra writes per partition;
//! * every operation writes **one output row per segment**, in segment
//!   order, so the output never depends on a mode's size and no warp reads
//!   a segment's coordinate. The typed wrappers place the rows on the host
//!   from the format's segment coordinates: SpTTM's fibers, SpMTTKRP's and
//!   SpTTMc's `shape[mode]` rows;
//! * factor-matrix rows are read through the **read-only data cache**, which
//!   is where tensor density shows up in performance (§V-A).
//!
//! [`LaunchConfig`] exposes the optimization toggles for the ablation
//! experiments: `use_segscan = false` degenerates to per-element atomics (the
//! COO baseline behaviour), `use_rocache = false` reads factors from plain
//! global memory, `use_fusion = false` pays a separate carry-resolution
//! kernel launch.

use crate::device::{DeviceMatrix, FcooDevice};
use crate::format::Fcoo;
use crate::modes::TensorOp;
use crate::pack::scatter_rows;
use gpu_sim::memory::DeviceBuffer;
use gpu_sim::scan::{block_segscan_cycles, warp_segscan_cycles};
use gpu_sim::stats::BlockStats;
use gpu_sim::{GpuDevice, KernelStats, OutOfMemory};
use tensor_core::{DenseMatrix, SemiSparseTensor};

/// Warp-shuffle operations each BF-COO gather run spends demultiplexing the
/// bucketed lanes back onto their owning threads (arXiv:1904.03329 §4: one
/// ballot, two index shuffles, two value shuffles per 32-non-zero run).
pub const BUCKET_SHUFFLE_OPS: u64 = 5;

/// Co-resident column-sibling blocks that can share one read-only line fill
/// or co-write one output line: a 32-byte line holds 8 floats.
const LINE_SHARERS: usize = 8;

/// How a unified-kernel launch splits its output columns over `bIdy`.
///
/// `S` output columns gather one identical set of 32-byte factor lines per
/// non-zero: `min(R, 8)` for SpTTM and SpMTTKRP (adjacent columns of one
/// row), `Π min(R_p, 8)` for SpTTMc (every Kronecker column whose digits
/// fall in the same lines). Only 8 sibling blocks can share a line fill, so
/// one block computes a **tile** of consecutive columns: the largest power
/// of two `≤ max(1, S / 8)` dividing the column count. SpTTM and SpMTTKRP
/// always get `tile = 1`; SpTTMc at rank 8 gets 8, at rank 4 gets 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnTiling {
    /// Dense output columns (`R`, or `Π R_p` for SpTTMc).
    pub columns: usize,
    /// Consecutive output columns one block computes.
    pub tile: usize,
    /// Blocks that read one factor line set between them (each is charged
    /// its share of every read-only miss fill).
    pub factor_sharers: u64,
    /// Blocks that co-write one output line (the write-back L2 merges
    /// their partial lines).
    pub write_sharers: u64,
}

impl ColumnTiling {
    /// The tiling of `op` with per-product-mode factor ranks `ranks`.
    pub fn for_op(op: TensorOp, ranks: &[usize]) -> ColumnTiling {
        let (columns, shared) = match op {
            TensorOp::SpTtmc { .. } => (
                ranks.iter().product(),
                ranks.iter().map(|&r| r.min(LINE_SHARERS)).product(),
            ),
            _ => (ranks[0], ranks[0].min(LINE_SHARERS)),
        };
        let limit = (shared / LINE_SHARERS).max(1);
        let mut tile = 1;
        while tile * 2 <= limit && columns % (tile * 2) == 0 {
            tile *= 2;
        }
        ColumnTiling {
            columns,
            tile,
            factor_sharers: (shared / tile).min(LINE_SHARERS) as u64,
            write_sharers: (LINE_SHARERS / tile).min(columns / tile).max(1) as u64,
        }
    }

    /// The tiling of `fcoo`'s operation with every product factor at rank
    /// `rank`.
    pub fn at_rank(fcoo: &Fcoo, rank: usize) -> ColumnTiling {
        let ranks = vec![rank; fcoo.classification.product_modes.len()];
        ColumnTiling::for_op(fcoo.op, &ranks)
    }

    /// Grid y-extent: column tiles per partition range.
    pub fn grid_y(&self) -> usize {
        self.columns / self.tile
    }
}

/// One factor matrix the unified kernel gathers per non-zero: output column
/// `c` reads entry `(indices[nz], (c / stride) % cols)`.
struct FactorRead<'a> {
    matrix: &'a DeviceMatrix,
    indices: &'a DeviceBuffer<u32>,
    stride: usize,
}

/// One factor read of one output column: the matrix, its row indices and
/// the column's digit in it.
type ColumnRead<'a> = (&'a DeviceMatrix, &'a DeviceBuffer<u32>, usize);

impl FactorRead<'_> {
    fn digit(&self, col: usize) -> usize {
        (col / self.stride) % self.matrix.cols()
    }

    /// The wide load: one address per distinct `1 << line_shift`-byte line
    /// of the columns `first` and `rest` (ascending) of non-zero `nz`'s row.
    /// Always inlined: it runs once per non-zero and factor in every gather.
    #[inline(always)]
    fn wide_load(
        &self,
        nz: usize,
        first: usize,
        rest: &[usize],
        line_shift: u32,
        addrs: &mut Vec<u64>,
    ) {
        let row = self.indices.get(nz) as usize;
        let addr = self.matrix.addr(row, first);
        addrs.push(addr);
        let mut last_line = addr >> line_shift;
        for &d in rest {
            let addr = self.matrix.addr(row, d);
            if addr >> line_shift != last_line {
                last_line = addr >> line_shift;
                addrs.push(addr);
            }
        }
    }
}

/// How the unified skeleton batches its scattered factor-matrix reads.
///
/// `Strided` is the paper's F-COO schedule: iteration `i` gathers lane
/// `l`'s non-zero `l·threadlen + i`, so one warp-wide batch mixes addresses
/// `threadlen` apart in the non-zero stream. `Bucketed` is the BF-COO
/// schedule: the warp walks its non-zero span in aligned 32-element runs,
/// issuing one batch **per factor** per run — consecutive non-zeros share
/// segment rows under the format's sort order, so each batch dedups to the
/// run's distinct-row count (the per-run bucket metadata streamed alongside
/// the tensor). Both schedules cover exactly the same non-zeros; only the
/// batching — and therefore the cache behaviour — differs.
#[derive(Clone, Copy)]
pub(crate) enum GatherLayout<'a> {
    /// F-COO lane-strided gathers (one batch per threadlen iteration).
    Strided,
    /// BF-COO run-bucketed gathers over per-product-mode bucket arrays.
    Bucketed {
        /// One distinct-row-count array per product mode, one entry per
        /// aligned 32-non-zero run.
        buckets: &'a [DeviceBuffer<u32>],
    },
}

/// Tunable launch parameters and optimization toggles.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Threads per (one-dimensional) block; must be a multiple of 32.
    pub block_size: usize,
    /// Route factor-matrix reads through the read-only data cache.
    pub use_rocache: bool,
    /// Reduce segments with segmented scan; `false` falls back to one
    /// atomic per non-zero (COO-style accumulation).
    pub use_segscan: bool,
    /// Fuse product/scan/accumulate kernels with adjacent synchronization;
    /// `false` pays an extra kernel launch for boundary-carry resolution.
    pub use_fusion: bool,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            block_size: 128,
            use_rocache: true,
            use_segscan: true,
            use_fusion: true,
        }
    }
}

impl LaunchConfig {
    /// A config with the given block size and all optimizations on.
    pub fn with_block_size(block_size: usize) -> Self {
        LaunchConfig {
            block_size,
            ..Default::default()
        }
    }
}

/// The unified kernel's view of one launch: the factor reads of the
/// format's operation and the width of the output they fill, one row per
/// segment.
struct Gathers<'a> {
    /// One read per product mode, in product-mode order.
    reads: Vec<FactorRead<'a>>,
    /// Output columns (`R`, or `Π R_p` for SpTTMc).
    columns: usize,
}

impl<'a> Gathers<'a> {
    /// Reads `factors`, listed as [`TensorOp::factor_modes`] says, for
    /// `fcoo`'s operation.
    ///
    /// # Panics
    /// If the factor count or a factor's shape does not fit the format.
    fn new(fcoo: &'a FcooDevice, factors: &[&'a DeviceMatrix]) -> Self {
        let product_modes = &fcoo.classification.product_modes;
        let (matrices, strides) = match fcoo.op {
            TensorOp::SpTtm { .. } => {
                assert_eq!(factors.len(), 1, "SpTTM takes one factor");
                (factors.to_vec(), vec![1])
            }
            TensorOp::SpMttkrp { .. } => {
                assert_eq!(
                    factors.len(),
                    fcoo.shape.len(),
                    "one factor per mode required"
                );
                let matrices: Vec<&DeviceMatrix> =
                    product_modes.iter().map(|&m| factors[m]).collect();
                for (&m, factor) in product_modes.iter().zip(&matrices) {
                    assert_eq!(
                        factor.cols(),
                        matrices[0].cols(),
                        "factor {m} column count mismatch"
                    );
                }
                let strides = vec![1; matrices.len()];
                (matrices, strides)
            }
            TensorOp::SpTtmc { .. } => {
                assert_eq!(
                    factors.len(),
                    product_modes.len(),
                    "one factor per product mode required"
                );
                // Mixed-radix strides over the Kronecker column: last
                // factor fastest.
                let mut strides = vec![1usize; factors.len()];
                for p in (0..factors.len() - 1).rev() {
                    strides[p] = strides[p + 1] * factors[p + 1].cols();
                }
                (factors.to_vec(), strides)
            }
        };
        for (&m, factor) in product_modes.iter().zip(&matrices) {
            assert_eq!(
                factor.rows(),
                fcoo.shape[m],
                "factor row mismatch on mode {m}"
            );
        }
        // The first factor's digit varies slowest.
        let columns = strides[0] * matrices[0].cols();
        let reads = matrices
            .into_iter()
            .zip(&fcoo.product_indices)
            .zip(strides)
            .map(|((matrix, indices), stride)| FactorRead {
                matrix,
                indices,
                stride,
            })
            .collect();
        Gathers { reads, columns }
    }
}

/// Runs the unified kernel for `fcoo`'s operation with the `layout`
/// gather schedule, accumulating into `out` without clearing it: an
/// all-zero buffer gives the operation's result, while a buffer whose
/// first row carries a running partial sum extends that sum — the
/// out-of-core path's chunk-boundary seeding. `factors` are listed as
/// [`TensorOp::factor_modes`] says.
///
/// # Panics
/// If the factors do not fit the format or `out` is not exactly
/// `segments × columns` elements.
pub(crate) fn launch_into(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    layout: GatherLayout<'_>,
    factors: &[&DeviceMatrix],
    cfg: &LaunchConfig,
    out: &DeviceBuffer<f32>,
) -> KernelStats {
    let gathers = Gathers::new(fcoo, factors);
    assert_eq!(
        out.len(),
        fcoo.segments() * gathers.columns,
        "output buffer size mismatch"
    );
    run_unified(device, fcoo, cfg, layout, &gathers, out)
}

/// [`launch_into`] a zero-allocated output, returned as a dense
/// `segments × columns` block: one row per segment, in segment order.
pub(crate) fn launch(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    layout: GatherLayout<'_>,
    factors: &[&DeviceMatrix],
    cfg: &LaunchConfig,
) -> Result<(DenseMatrix, KernelStats), OutOfMemory> {
    let (rows, columns) = (fcoo.segments(), Gathers::new(fcoo, factors).columns);
    let out = device.memory().alloc_zeroed::<f32>(rows * columns)?;
    let stats = launch_into(device, fcoo, layout, factors, cfg, &out);
    Ok((DenseMatrix::from_vec(rows, columns, out.into_vec()), stats))
}

/// Panics unless `fcoo` was preprocessed for the operation `op` builds
/// from its mode; returns that mode.
pub(crate) fn expect_op(fcoo: &FcooDevice, op: fn(usize) -> TensorOp) -> usize {
    let mode = fcoo.op.mode();
    assert_eq!(
        fcoo.op,
        op(mode),
        "the format was preprocessed for {:?}, not {:?}",
        fcoo.op,
        op(mode)
    );
    mode
}

/// SpTTM's semi-sparse result from its launched `segments × R` block.
pub(crate) fn spttm_fibers(fcoo: &FcooDevice, mode: usize, rows: &DenseMatrix) -> SemiSparseTensor {
    SemiSparseTensor::from_fibers(
        fcoo.shape.clone(),
        mode,
        rows.cols(),
        &fcoo.segment_coords_host,
        rows.data(),
    )
}

/// SpMTTKRP's or SpTTMc's dense `shape[mode] × columns` result from its
/// launched `segments × columns` block: each segment's row lands at its
/// operating-mode coordinate, every other row is zero.
pub(crate) fn mode_rows(fcoo: &FcooDevice, mode: usize, rows: &DenseMatrix) -> DenseMatrix {
    scatter_rows(rows, &fcoo.segment_coords_host[0], fcoo.shape[mode])
}

/// Sparse tensor-times-matrix `Y = X ×ₙ U` with the unified kernel.
///
/// `fcoo` must have been preprocessed with [`TensorOp::SpTtm`] on the same
/// mode that `u` multiplies. Returns the semi-sparse result and the
/// simulated kernel statistics.
///
/// # Panics
/// If `fcoo` was preprocessed for a different operation or `u` has the wrong
/// row count.
pub fn spttm(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    u: &DeviceMatrix,
    cfg: &LaunchConfig,
) -> Result<(SemiSparseTensor, KernelStats), OutOfMemory> {
    let mode = expect_op(fcoo, |mode| TensorOp::SpTtm { mode });
    let (rows, stats) = launch(device, fcoo, GatherLayout::Strided, &[u], cfg)?;
    Ok((spttm_fibers(fcoo, mode, &rows), stats))
}

/// Sparse MTTKRP `M = X₍ₙ₎ (⊙ factors)` with the unified one-shot kernel.
///
/// `factors` holds one device matrix per tensor mode; the entry at the
/// operating mode is ignored. Returns the dense `shape[mode] × R` result.
///
/// # Panics
/// If `fcoo` was preprocessed for a different operation or factor shapes are
/// inconsistent.
pub fn spmttkrp(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    factors: &[&DeviceMatrix],
    cfg: &LaunchConfig,
) -> Result<(DenseMatrix, KernelStats), OutOfMemory> {
    let mode = expect_op(fcoo, |mode| TensorOp::SpMttkrp { mode });
    let (rows, stats) = launch(device, fcoo, GatherLayout::Strided, factors, cfg)?;
    Ok((mode_rows(fcoo, mode, &rows), stats))
}

/// Sparse TTM-chain (paper Eq. 4) for tensors of any order: one factor per
/// product mode in ascending mode order; the output has `Π R_p` columns
/// with the last product mode varying fastest (matching
/// `tensor_core::ops::spttmc_norder`).
///
/// # Panics
/// If `fcoo` was preprocessed for a different operation or factor shapes are
/// inconsistent.
pub fn spttmc_norder(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    product_factors: &[&DeviceMatrix],
    cfg: &LaunchConfig,
) -> Result<(DenseMatrix, KernelStats), OutOfMemory> {
    let mode = expect_op(fcoo, |mode| TensorOp::SpTtmc { mode });
    let (rows, stats) = launch(device, fcoo, GatherLayout::Strided, product_factors, cfg)?;
    Ok((mode_rows(fcoo, mode, &rows), stats))
}

/// The shared unified kernel skeleton.
///
/// Every output column `c` accumulates `value · Π_p factor_p(row_p, digit_p(c))`
/// over the non-zeros of each segment ([`FactorRead`]); block `(bIdx, bIdy)`
/// computes the [`ColumnTiling`] tile `bIdy` for its partition range.
/// Segment `s` writes output row `s`.
fn run_unified(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    cfg: &LaunchConfig,
    layout: GatherLayout<'_>,
    gathers: &Gathers<'_>,
    out: &DeviceBuffer<f32>,
) -> KernelStats {
    let factors = &gathers.reads;
    let ranks: Vec<usize> = factors.iter().map(|f| f.matrix.cols()).collect();
    let tiling = ColumnTiling::for_op(fcoo.op, &ranks);
    let (columns, tile) = (tiling.columns, tiling.tile);
    // Total bytes of the (reused) factor matrices: bounds whether read-only
    // misses stay in the device L2.
    let factor_ws: usize = factors
        .iter()
        .map(|f| f.matrix.rows() * f.matrix.cols() * 4)
        .sum();
    // One multiply per factor plus the accumulate, per output column.
    let compute_per_element = 1 + factors.len() as u64;
    // Read-only cache lines are a power of two bytes long.
    let line_shift = device.config().readonly_line_bytes.trailing_zeros();
    let threadlen = fcoo.threadlen;
    let nnz = fcoo.nnz;
    let partitions = fcoo.partitions();
    let grid_x = partitions.div_ceil(cfg.block_size);
    let warp = 32usize;
    // Shared memory: one carry (value + open-flag word) per warp for the
    // block-level segmented-scan combine, reused once per tile column.
    let shared_bytes = (cfg.block_size / 32) * 8;
    let mut stats = device.launch_with_shared(
        (grid_x, tiling.grid_y()),
        cfg.block_size,
        shared_bytes,
        |ctx| {
            let col0 = ctx.block_y() * tile;
            // Column-sibling blocks resident on the same SM read the same
            // factor lines: one read-only cache line (8 floats) serves up to
            // 8 of them, so each block is charged its share of the fill (the
            // "data reuse" of §IV-D).
            if cfg.use_rocache {
                ctx.set_rocache_sharers(tiling.factor_sharers);
            }
            // What each tile column reads per factor: the matrix, its row
            // indices and the column's digit.
            let column_reads: Vec<Vec<ColumnRead<'_>>> = (col0..col0 + tile)
                .map(|c| {
                    factors
                        .iter()
                        .map(|f| (f.matrix, f.indices, f.digit(c)))
                        .collect()
                })
                .collect();
            // Each factor's distinct tile digits in ascending order, so a
            // row's lines come out sorted and adjacent dedup finds every
            // distinct line: the first digit, then the rest (none for a
            // one-column tile).
            let tile_digits: Vec<(&FactorRead<'_>, usize, Vec<usize>)> = factors
                .iter()
                .map(|f| {
                    let mut d: Vec<usize> = (col0..col0 + tile).map(|c| f.digit(c)).collect();
                    d.sort_unstable();
                    d.dedup();
                    (f, d[0], d[1..].to_vec())
                })
                .collect();
            // Non-zero `nz`'s contribution to the column that makes `reads`.
            let product = |nz: usize, reads: &[ColumnRead<'_>]| {
                let mut product = fcoo.values.get(nz);
                for &(matrix, indices, d) in reads {
                    product *= matrix.get(indices.get(nz) as usize, d);
                }
                product
            };
            let mut ro_addrs: Vec<u64> = Vec::with_capacity(2 * warp);
            let mut write_rows: Vec<u64> = Vec::with_capacity(warp * tile);
            let mut atomic_events: Vec<(usize, f32)> = Vec::new();
            let mut any_warp_ran = false;
            for w in 0..ctx.warps_per_block() {
                let warp_first_thread = ctx.block_x() * ctx.block_threads() + w * warp;
                let warp_nnz_start = warp_first_thread * threadlen;
                if warp_nnz_start >= nnz {
                    break;
                }
                any_warp_ran = true;
                ctx.begin_warp();
                let warp_nnz_end = ((warp_first_thread + warp) * threadlen).min(nnz);
                let span = warp_nnz_end - warp_nnz_start;

                // Streaming reads of the warp's contiguous tensor region:
                // values, product-mode indices, bit flags and partition
                // metadata.
                // The grid places all column blocks of one partition range
                // adjacently, so the bIdy = 0 block streams the region from
                // DRAM and its co-resident column siblings hit in L2 (the
                // "data reuse" optimization of §IV-D).
                let l2_hot = ctx.block_y() > 0;
                let stream = |ctx: &mut gpu_sim::BlockCtx<'_>, addr: u64, bytes: usize| {
                    if l2_hot {
                        ctx.read_global_range_l2(addr, bytes);
                    } else {
                        ctx.read_global_range(addr, bytes);
                    }
                };
                stream(ctx, fcoo.values.addr(warp_nnz_start), span * 4);
                for indices in &fcoo.product_indices {
                    stream(ctx, indices.addr(warp_nnz_start), span * 4);
                }
                // The bit-flag bytes this warp touches: its own non-zeros plus
                // the one-byte lookahead for the head flag at `pend` (clamped to
                // the last flag byte — `head(nnz)` is never read).
                let bf_first = warp_nnz_start / 8;
                let bf_last = warp_nnz_end.min(nnz - 1) / 8;
                stream(ctx, fcoo.bf.addr(bf_first), bf_last - bf_first + 1);
                let threads_here = warp.min(partitions - warp_first_thread);
                stream(
                    ctx,
                    fcoo.partition_first_segment.addr(warp_first_thread),
                    threads_here * 4,
                );
                let sf_first = warp_first_thread / 8;
                let sf_last = (warp_first_thread + threads_here - 1) / 8;
                stream(ctx, fcoo.sf.addr(sf_first), sf_last - sf_first + 1);
                if let GatherLayout::Bucketed { buckets } = layout {
                    // BF-COO also streams its per-run distinct-row counts,
                    // one array per product mode. `warp_nnz_start` is a
                    // multiple of 32 (warps start on 32-thread boundaries),
                    // so the warp's span aligns with the global runs.
                    let run_first = warp_nnz_start / 32;
                    let runs = span.div_ceil(32);
                    for bucket in buckets {
                        stream(ctx, bucket.addr(run_first), runs * 4);
                    }
                }

                // Factor-matrix reads (scattered by product-mode indices →
                // read-only cache territory) and the product FLOPs for the
                // tile's columns. The strided schedule batches lane-strided
                // addresses per threadlen iteration; the bucketed schedule
                // batches each aligned 32-non-zero run per factor, so
                // consecutive non-zeros sharing a segment row collapse onto
                // the same cache lines (the load balancing of
                // arXiv:1904.03329).
                let read = |ctx: &mut gpu_sim::BlockCtx<'_>, addrs: &[u64]| {
                    if cfg.use_rocache {
                        ctx.read_readonly_ws(addrs, factor_ws);
                    } else {
                        ctx.read_global_ws(addrs, factor_ws);
                    }
                };
                match layout {
                    GatherLayout::Strided => {
                        for i in 0..threadlen {
                            ro_addrs.clear();
                            for lane in 0..warp {
                                let nz = (warp_first_thread + lane) * threadlen + i;
                                if nz < nnz {
                                    for &(factor, first, ref rest) in &tile_digits {
                                        factor.wide_load(
                                            nz,
                                            first,
                                            rest,
                                            line_shift,
                                            &mut ro_addrs,
                                        );
                                    }
                                }
                            }
                            if ro_addrs.is_empty() {
                                break;
                            }
                            read(ctx, &ro_addrs);
                            ctx.compute(compute_per_element * tile as u64);
                        }
                    }
                    GatherLayout::Bucketed { .. } => {
                        // One ≤32-non-zero batch per factor, so the read-only
                        // cache's line-dedup window sees a single factor's
                        // rows.
                        let runs = span.div_ceil(32);
                        for r in 0..runs {
                            let run_start = warp_nnz_start + r * 32;
                            let run_end = (run_start + 32).min(warp_nnz_end);
                            for &(factor, first, ref rest) in &tile_digits {
                                ro_addrs.clear();
                                for nz in run_start..run_end {
                                    factor.wide_load(nz, first, rest, line_shift, &mut ro_addrs);
                                }
                                read(ctx, &ro_addrs);
                            }
                            ctx.shuffle(BUCKET_SHUFFLE_OPS);
                            ctx.compute(compute_per_element * tile as u64);
                        }
                    }
                }

                // Functional per-lane segment accumulation, one tile column
                // at a time. The first column narrates each finalized
                // segment's tile columns as consecutive output addresses.
                write_rows.clear();
                atomic_events.clear();
                for (j, reads) in column_reads.iter().enumerate() {
                    let col = col0 + j;
                    // Exclusive segments are written once; boundary segments
                    // are accumulated atomically (functionally) while the
                    // cost model charges them as scan-carried writes when
                    // segmented scan is on.
                    let mut finalize = |atomic_events: &mut Vec<(usize, f32)>,
                                        seg: usize,
                                        sum: f32,
                                        exclusive: bool| {
                        if j == 0 && cfg.use_segscan {
                            let base = seg * columns + col0;
                            for i in base..base + tile {
                                write_rows.push(out.addr(i));
                            }
                        }
                        let index = seg * columns + col;
                        if !cfg.use_segscan {
                            atomic_events.push((index, sum));
                        } else if exclusive {
                            // SAFETY: exclusive segments are owned by exactly
                            // one thread for this output column.
                            unsafe { out.write(index, sum) };
                        } else {
                            out.atomic_add_f32(index, sum);
                        }
                    };
                    for lane in 0..warp {
                        let thread = warp_first_thread + lane;
                        let pstart = thread * threadlen;
                        if pstart >= nnz {
                            break;
                        }
                        let pend = ((thread + 1) * threadlen).min(nnz);
                        // Heads seen so far, including any before this
                        // partition.
                        let mut heads = fcoo.partition_first_segment.get(thread) as usize;
                        let mut sum = 0.0f32;
                        let mut began_inside = false;
                        let mut has_open = false;
                        for nz in pstart..pend {
                            let head = fcoo.head(nz);
                            if head {
                                if has_open {
                                    // Previous segment closed by this head:
                                    // its end is inside the partition.
                                    finalize(&mut atomic_events, heads - 1, sum, began_inside);
                                }
                                heads += 1;
                                sum = 0.0;
                                began_inside = true;
                            } else if !has_open {
                                // Partition starts mid-segment (sf bit clear).
                                began_inside = false;
                            }
                            has_open = true;
                            if cfg.use_segscan {
                                sum += product(nz, reads);
                            } else {
                                // Ablation: one atomic per non-zero and
                                // column, COO style.
                                let index = (heads - 1) * columns + col;
                                atomic_events.push((index, product(nz, reads)));
                            }
                        }
                        if has_open && cfg.use_segscan {
                            // Final open segment: exclusive only if it both
                            // began inside and the next partition starts a
                            // new segment.
                            let ends_exclusive = pend == nnz || fcoo.head(pend);
                            finalize(
                                &mut atomic_events,
                                heads - 1,
                                sum,
                                began_inside && ends_exclusive,
                            );
                        }
                    }
                }

                // Charge the warp-level segmented-scan stages (one per tile
                // column) and the batched output traffic.
                if cfg.use_segscan {
                    ctx.compute(warp_segscan_cycles(ctx.config()) * tile as u64);
                    // Sibling column blocks write adjacent columns of the same
                    // output rows; the write-back L2 merges them per line.
                    for chunk in write_rows.chunks(warp) {
                        ctx.write_global_shared(chunk, tiling.write_sharers);
                    }
                }
                for chunk in atomic_events.chunks(warp) {
                    ctx.atomic_add_f32(out, chunk);
                }
            }
            if any_warp_ran && cfg.use_segscan {
                // Block-level scan combine (once per tile column through the
                // per-warp carry slots) + barriers, plus the inter-block
                // carry when kernels are fused.
                ctx.compute(block_segscan_cycles(ctx.block_threads(), ctx.config()) * tile as u64);
                ctx.syncthreads();
                ctx.syncthreads();
                if cfg.use_fusion {
                    ctx.adjacent_sync();
                }
            }
        },
    );
    if cfg.use_segscan && !cfg.use_fusion {
        // Unfused variant: boundary carries resolved by a follow-up kernel
        // that re-reads one partial per partition.
        let carry_block = BlockStats {
            dram_bytes: (partitions * 8) as u64,
            transactions: (partitions * 8).div_ceil(device.config().transaction_bytes) as u64,
            max_warp_cycles: 64,
            total_warp_cycles: 64,
            warps: 1,
            ..Default::default()
        };
        let carry = KernelStats::from_blocks(&[carry_block], cfg.block_size, device.config());
        stats.merge(&carry);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Fcoo;
    use gpu_sim::AccessKind;
    use tensor_core::approx::assert_slices_close;
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::ops;
    use tensor_core::SparseTensorCoo;

    fn upload_factors(
        device: &GpuDevice,
        tensor: &SparseTensorCoo,
        r: usize,
        seed: u64,
    ) -> Vec<DeviceMatrix> {
        tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &size)| {
                let host = DenseMatrix::random(size, r, seed + m as u64);
                DeviceMatrix::upload(device.memory(), &host).unwrap()
            })
            .collect()
    }

    fn check_spttm(tensor: &SparseTensorCoo, mode: usize, r: usize, cfg: &LaunchConfig) {
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtm { mode }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let u_host = DenseMatrix::random(tensor.shape()[mode], r, 7);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (result, stats) = spttm(&device, &dev, &u, cfg).unwrap();
        let reference = ops::spttm(tensor, mode, &u_host);
        let diff = result
            .max_abs_diff(&reference)
            .expect("fiber sets must match");
        assert!(diff < 1e-3, "mode {mode} diff {diff}");
        assert!(stats.time_us > 0.0);
    }

    fn check_spmttkrp(tensor: &SparseTensorCoo, mode: usize, r: usize, cfg: &LaunchConfig) {
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let factors = upload_factors(&device, tensor, r, 40);
        let factor_refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (result, _) = spmttkrp(&device, &dev, &factor_refs, cfg).unwrap();
        let host_factors: Vec<DenseMatrix> = factors.iter().map(|f| f.download()).collect();
        let host_refs: Vec<&DenseMatrix> = host_factors.iter().collect();
        let reference = ops::spmttkrp(tensor, mode, &host_refs);
        let diff = result.max_abs_diff(&reference);
        assert!(diff < 1e-3, "mode {mode} diff {diff}");
    }

    #[test]
    fn spttm_matches_reference_all_modes() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 11);
        for mode in 0..3 {
            check_spttm(&tensor, mode, 16, &LaunchConfig::default());
        }
    }

    #[test]
    fn spmttkrp_matches_reference_all_modes() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 12);
        for mode in 0..3 {
            check_spmttkrp(&tensor, mode, 16, &LaunchConfig::default());
        }
    }

    #[test]
    fn kernels_correct_on_dense_and_skewed_datasets() {
        for kind in [DatasetKind::Brainq, DatasetKind::Nell1] {
            let (tensor, _) = datasets::generate(kind, 4000, 13);
            check_spttm(&tensor, 2, 8, &LaunchConfig::default());
            check_spmttkrp(&tensor, 0, 8, &LaunchConfig::default());
        }
    }

    #[test]
    fn results_identical_across_optimization_toggles() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2500, 14);
        for cfg in [
            LaunchConfig {
                use_rocache: false,
                ..Default::default()
            },
            LaunchConfig {
                use_segscan: false,
                ..Default::default()
            },
            LaunchConfig {
                use_fusion: false,
                ..Default::default()
            },
            LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
            LaunchConfig {
                block_size: 1024,
                ..Default::default()
            },
        ] {
            check_spttm(&tensor, 2, 8, &cfg);
            check_spmttkrp(&tensor, 0, 8, &cfg);
        }
    }

    #[test]
    fn various_threadlens_are_correct() {
        let (tensor, _) = datasets::generate(DatasetKind::Delicious, 2500, 15);
        let device = GpuDevice::titan_x();
        let u_host = DenseMatrix::random(tensor.shape()[2], 8, 3);
        let reference = ops::spttm(&tensor, 2, &u_host);
        for threadlen in [1, 3, 8, 16, 64] {
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, threadlen);
            let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
            let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
            let (result, _) = spttm(&device, &dev, &u, &LaunchConfig::default()).unwrap();
            let diff = result
                .max_abs_diff(&reference)
                .expect("fiber sets must match");
            assert!(diff < 1e-3, "threadlen {threadlen} diff {diff}");
        }
    }

    #[test]
    fn spttmc_matches_reference() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 16);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 0 }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let a_host = DenseMatrix::random(tensor.shape()[1], 4, 21);
        let b_host = DenseMatrix::random(tensor.shape()[2], 3, 22);
        let a = DeviceMatrix::upload(device.memory(), &a_host).unwrap();
        let b = DeviceMatrix::upload(device.memory(), &b_host).unwrap();
        let (result, _) =
            spttmc_norder(&device, &dev, &[&a, &b], &LaunchConfig::default()).unwrap();
        let reference = ops::spttmc(
            &tensor,
            0,
            &[&DenseMatrix::zeros(tensor.shape()[0], 1), &a_host, &b_host],
        );
        assert!(result.max_abs_diff(&reference) < 1e-3);
        assert_slices_close(result.row(0), reference.row(0), 1e-3);
    }

    #[test]
    fn spttmc_norder_matches_reference_on_4_order() {
        let tensor = tensor_core::datasets::generate_norder(&[10, 8, 12, 6], 1_500, 0.5, 44);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 1 }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let hosts: Vec<DenseMatrix> = fcoo
            .classification
            .product_modes
            .iter()
            .enumerate()
            .map(|(p, &m)| DenseMatrix::random(tensor.shape()[m], 2 + p % 2, 60 + p as u64))
            .collect();
        let uploaded: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
        let (result, _) = spttmc_norder(&device, &dev, &refs, &LaunchConfig::default()).unwrap();
        let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let reference = tensor_core::ops::spttmc_norder(&tensor, 1, &host_refs);
        assert!(
            result.max_abs_diff(&reference) < 1e-3,
            "diff {}",
            result.max_abs_diff(&reference)
        );
    }

    #[test]
    fn column_tiles_follow_the_line_sharing_rule() {
        let tiles = |op, ranks: &[usize]| {
            let t = ColumnTiling::for_op(op, ranks);
            (t.tile, t.grid_y(), t.factor_sharers, t.write_sharers)
        };
        let ttm = TensorOp::SpTtm { mode: 0 };
        let mttkrp = TensorOp::SpMttkrp { mode: 0 };
        let ttmc = TensorOp::SpTtmc { mode: 0 };
        // SpTTM and SpMTTKRP: one column per block at every rank.
        for r in [1, 3, 8, 16, 64] {
            assert_eq!(tiles(ttm, &[r]), (1, r, r.min(8) as u64, r.min(8) as u64));
            assert_eq!(tiles(mttkrp, &[r, r]).0, 1);
        }
        // SpTTMc: 8 sharers per line set, so S / 8 columns per block.
        assert_eq!(tiles(ttmc, &[8, 8]), (8, 8, 8, 1));
        assert_eq!(tiles(ttmc, &[4, 4]), (2, 8, 8, 4));
        assert_eq!(tiles(ttmc, &[16, 16]), (8, 32, 8, 1));
        assert_eq!(tiles(ttmc, &[8, 8, 8]), (64, 8, 8, 1));
        // S / 8 rounds down to a power of two that divides the columns.
        assert_eq!(tiles(ttmc, &[3, 3]), (1, 9, 8, 8));
        assert_eq!(tiles(ttmc, &[5, 5]), (1, 25, 8, 8));
        assert_eq!(tiles(ttmc, &[2, 2]), (1, 4, 4, 4));
        assert_eq!(tiles(ttmc, &[3, 16]), (2, 24, 8, 4));
    }

    #[test]
    fn tiled_spttmc_gathers_each_factor_line_once_per_tile() {
        // On a hypersparse tensor every factor line misses, so the untiled
        // kernel's 64 column blocks paid each line 8 times over (7.3× the
        // SpMTTKRP traffic on the same mode); one block per 8 Kronecker
        // columns keeps SpTTMc within a small multiple of SpMTTKRP.
        let device = GpuDevice::titan_x();
        for nnz in [1_500, 10_000] {
            let (tensor, _) = datasets::generate(DatasetKind::Nell1, nnz, 23);
            let factors = upload_factors(&device, &tensor, 8, 90);
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            let mttkrp = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 1 }, 8);
            let mttkrp = FcooDevice::upload(device.memory(), &mttkrp).unwrap();
            let (_, mttkrp_stats) =
                spmttkrp(&device, &mttkrp, &refs, &LaunchConfig::default()).unwrap();
            let ttmc = Fcoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 1 }, 8);
            let ttmc = FcooDevice::upload(device.memory(), &ttmc).unwrap();
            let product = [&factors[0], &factors[2]];
            let (_, ttmc_stats) =
                spttmc_norder(&device, &ttmc, &product, &LaunchConfig::default()).unwrap();
            let ratio = ttmc_stats.dram_bytes as f64 / mttkrp_stats.dram_bytes as f64;
            assert!(
                ratio < 3.5,
                "nnz {nnz}: SpTTMc moves {ratio:.2}x SpMTTKRP's DRAM"
            );
        }
    }

    #[test]
    fn segscan_avoids_atomics_and_beats_atomic_fallback() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 20_000, 17);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let factors = upload_factors(&device, &tensor, 16, 50);
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (_, scan_stats) = spmttkrp(&device, &dev, &refs, &LaunchConfig::default()).unwrap();
        let (_, atomic_stats) = spmttkrp(
            &device,
            &dev,
            &refs,
            &LaunchConfig {
                use_segscan: false,
                ..Default::default()
            },
        )
        .unwrap();
        // With scan, atomics only occur on partition-boundary segments.
        assert!(scan_stats.atomics < atomic_stats.atomics / 4);
        assert!(
            scan_stats.time_us < atomic_stats.time_us,
            "scan {} vs atomic {}",
            scan_stats.time_us,
            atomic_stats.time_us
        );
    }

    #[test]
    fn rocache_helps_dense_tensors() {
        // Dense-ish tensor: factor rows are reused heavily → high hit rate.
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 20_000, 18);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let u_host = DenseMatrix::random(tensor.shape()[2], 16, 5);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (_, with) = spttm(&device, &dev, &u, &LaunchConfig::default()).unwrap();
        assert!(
            with.rocache_hit_rate > 0.5,
            "hit rate {}",
            with.rocache_hit_rate
        );
    }

    #[test]
    fn rocache_cuts_dram_traffic_when_factor_exceeds_l2() {
        // nell1's scaled mode-3 factor is tens of MB — far beyond the 3 MB
        // L2 — so cache hits vs. plain loads show up as DRAM savings.
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 20_000, 18);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let u_host = DenseMatrix::random(tensor.shape()[2], 16, 5);
        assert!(u_host.rows() * u_host.cols() * 4 > device.config().l2_bytes);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (_, with) = spttm(&device, &dev, &u, &LaunchConfig::default()).unwrap();
        let (_, without) = spttm(
            &device,
            &dev,
            &u,
            &LaunchConfig {
                use_rocache: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with.dram_bytes < without.dram_bytes);
    }

    #[test]
    fn brainq_caches_better_than_nell1() {
        // The §V-A density analysis: dense tensors reuse factor rows.
        let device = GpuDevice::titan_x();
        let mut rates = Vec::new();
        for kind in [DatasetKind::Brainq, DatasetKind::Nell1] {
            let (tensor, _) = datasets::generate(kind, 20_000, 19);
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
            let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
            let factors = upload_factors(&device, &tensor, 16, 60);
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            let (_, stats) = spmttkrp(&device, &dev, &refs, &LaunchConfig::default()).unwrap();
            rates.push(stats.rocache_hit_rate);
        }
        assert!(
            rates[0] > rates[1] + 0.1,
            "brainq hit rate {} should exceed nell1 {}",
            rates[0],
            rates[1]
        );
    }

    #[test]
    fn unfused_variant_pays_extra_launch() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 5_000, 20);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let u_host = DenseMatrix::random(tensor.shape()[2], 16, 5);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (_, fused) = spttm(&device, &dev, &u, &LaunchConfig::default()).unwrap();
        let (_, unfused) = spttm(
            &device,
            &dev,
            &u,
            &LaunchConfig {
                use_fusion: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(unfused.time_us > fused.time_us);
    }

    #[test]
    fn unified_kernel_degenerates_to_spmv_on_matrices() {
        // §II: "SpTTM can be seen as a high dimensional generalization of
        // SpMV". A 2-order tensor with a 1-column dense matrix is exactly
        // sparse matrix-vector multiply, and the unified kernel handles it
        // with no special casing.
        let matrix = SparseTensorCoo::from_entries(
            vec![6, 5],
            &[
                (vec![0, 0], 2.0),
                (vec![0, 4], 1.0),
                (vec![2, 1], -3.0),
                (vec![3, 3], 4.0),
                (vec![5, 0], 0.5),
                (vec![5, 4], 2.5),
            ],
        );
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&matrix, TensorOp::SpTtm { mode: 1 }, 2);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let x_mat = DeviceMatrix::upload(device.memory(), &DenseMatrix::from_vec(5, 1, x.to_vec()))
            .unwrap();
        let (result, _) = spttm(&device, &dev, &x_mat, &LaunchConfig::default()).unwrap();
        // y = A·x by hand: y0 = 2·1 + 1·5 = 7, y2 = -3·2 = -6, y3 = 4·4 = 16,
        // y5 = 0.5·1 + 2.5·5 = 13. Rows 1 and 4 are empty (absent fibers).
        let mut y = vec![0.0f32; 6];
        for fib in 0..result.nfibs() {
            y[result.fiber_coord(fib)[0] as usize] = result.fiber(fib)[0];
        }
        assert_eq!(y, vec![7.0, 0.0, -6.0, 16.0, 0.0, 13.0]);
    }

    #[test]
    fn unified_kernel_computes_spmm_on_matrices() {
        // With R > 1 columns the same degeneration gives SpMM.
        let matrix = SparseTensorCoo::from_entries(
            vec![4, 3],
            &[
                (vec![0, 0], 1.0),
                (vec![1, 1], 2.0),
                (vec![3, 2], 3.0),
                (vec![0, 2], -1.0),
            ],
        );
        let dense = DenseMatrix::random(3, 4, 77);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&matrix, TensorOp::SpTtm { mode: 1 }, 4);
        let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
        let d = DeviceMatrix::upload(device.memory(), &dense).unwrap();
        let (result, _) = spttm(&device, &dev, &d, &LaunchConfig::default()).unwrap();
        let reference = tensor_core::ops::spttm(&matrix, 1, &dense);
        assert_eq!(result.max_abs_diff(&reference), Some(0.0));
    }

    #[test]
    fn single_nonzero_tensor() {
        let tensor = SparseTensorCoo::from_entries(vec![4, 4, 4], &[(vec![1, 2, 3], 2.5)]);
        check_spttm(&tensor, 2, 4, &LaunchConfig::default());
        check_spmttkrp(&tensor, 0, 4, &LaunchConfig::default());
    }

    #[test]
    fn one_giant_segment() {
        // All non-zeros share the same index coordinates: one segment that
        // spans every partition and block.
        let entries: Vec<(Vec<u32>, f32)> = (0..500).map(|k| (vec![1, 1, k], 1.0f32)).collect();
        let tensor = SparseTensorCoo::from_entries(vec![3, 3, 500], &entries);
        check_spttm(
            &tensor,
            2,
            4,
            &LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
        );
        // MTTKRP mode-3: index mode is k → 500 segments; also exercise the
        // transpose case where mode-1 gives one segment.
        check_spmttkrp(
            &tensor,
            0,
            4,
            &LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
        );
    }

    #[test]
    fn every_op_writes_one_row_per_segment() {
        // nell1 is hypersparse: its SpMTTKRP segments hold one or two
        // non-zeros, and its mode sizes dwarf its segment counts.
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 3000, 22);
        let order = tensor.order();
        for mode in 0..order {
            for op in [
                TensorOp::SpTtm { mode },
                TensorOp::SpMttkrp { mode },
                TensorOp::SpTtmc { mode },
            ] {
                let device = GpuDevice::titan_x();
                let fcoo = Fcoo::from_coo(&tensor, op, 4);
                let dev = FcooDevice::upload(device.memory(), &fcoo).unwrap();
                let factors: Vec<DeviceMatrix> = op
                    .factor_modes(order)
                    .into_iter()
                    .map(|m| {
                        let host = DenseMatrix::random(tensor.shape()[m], 4, 40 + m as u64);
                        DeviceMatrix::upload(device.memory(), &host).unwrap()
                    })
                    .collect();
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                let columns = ColumnTiling::at_rank(&fcoo, 4).columns;
                device.start_recording();
                let (rows, _) = launch(
                    &device,
                    &dev,
                    GatherLayout::Strided,
                    &refs,
                    &LaunchConfig::default(),
                )
                .unwrap();
                let recorded = device.stop_recording();
                assert_eq!((rows.rows(), rows.cols()), (fcoo.segments(), columns));
                let launch = &recorded.launches[0];
                let events = launch.blocks.iter().flat_map(|b| &b.events);
                for event in events {
                    if matches!(
                        event.kind,
                        AccessKind::NarratedRead | AccessKind::FunctionalRead
                    ) {
                        continue;
                    }
                    // Every write lands in the one output buffer, sized
                    // `segments × columns`.
                    let (_, bytes) = launch
                        .allocations
                        .iter()
                        .find(|&&(base, len)| (base..base + len as u64).contains(&event.addr))
                        .expect("every write lands in a live buffer");
                    assert_eq!(*bytes, fcoo.segments() * columns * 4, "{op:?}");
                }
            }
        }
    }

    #[test]
    fn oom_on_scaled_device_is_an_error() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 21);
        let device = GpuDevice::new(gpu_sim::DeviceConfig::titan_x_scaled_memory(3e-6));
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        // Upload fits, but the output allocation must fail.
        match FcooDevice::upload(device.memory(), &fcoo) {
            Err(_) => {} // upload itself may already exceed the budget
            Ok(dev) => {
                let mut factors = Vec::new();
                for (m, &size) in tensor.shape().iter().enumerate() {
                    let host = DenseMatrix::random(size, 64, m as u64);
                    match DeviceMatrix::upload(device.memory(), &host) {
                        Ok(f) => factors.push(f),
                        Err(_) => return, // factors alone exceed the budget: also an OOM
                    }
                }
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                assert!(spmttkrp(&device, &dev, &refs, &LaunchConfig::default()).is_err());
            }
        }
    }
}
