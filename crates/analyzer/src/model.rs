//! Symbolic launch geometry of the F-COO kernels.
//!
//! The abstract domain is deliberately small: every kernel in this workspace
//! assigns lane `l ∈ [0, 32)` of warp `w` in block `bx` to partition
//! `p(l) = bx·B + w·32 + l`, and partition `p` to the non-zero interval
//! `[p·T, min((p+1)·T, nnz))`. All launch properties the analyzer decides
//! are monotone along that linear order, so evaluating the symbolic
//! expressions at the *extremal* warp (the last live one) plus the exact
//! integer arithmetic of the header (`nnz`, `threadlen`, `partitions`) gives
//! precise answers — no approximation, hence verdicts that can never
//! disagree with a recorded trace.

use gpu_sim::DeviceConfig;

/// Exact launch geometry of one `(kernel, block_size, threadlen)` point —
/// the symbolic warp model's concrete skeleton.
#[derive(Debug, Clone, Copy)]
pub struct LaunchGeometry {
    /// Threads per block.
    pub block_size: usize,
    /// Non-zeros (or fibers, for the two-step reduction) per thread.
    pub threadlen: usize,
    /// Total work items: `nnz` for the unified kernels, `nfibs` for the
    /// two-step reduction.
    pub work_items: usize,
    /// Thread-level partitions: `⌈work_items / threadlen⌉`.
    pub partitions: usize,
    /// Grid x-extent: `⌈partitions / block_size⌉`.
    pub grid_x: usize,
    /// Dense output columns, handled by sibling blocks along the grid's y
    /// dimension.
    pub columns: usize,
    /// Consecutive output columns one block computes (`fcoo::ColumnTiling`);
    /// 1 unless set by [`LaunchGeometry::with_tile`].
    pub tile: usize,
    /// Dynamic shared memory per block in bytes.
    pub shared_bytes: usize,
}

impl LaunchGeometry {
    /// Geometry of a unified-kernel launch over `work_items` non-zeros.
    pub fn new(
        block_size: usize,
        threadlen: usize,
        work_items: usize,
        columns: usize,
        shared_bytes: usize,
    ) -> Self {
        let partitions = work_items.div_ceil(threadlen.max(1));
        LaunchGeometry {
            block_size,
            threadlen,
            work_items,
            partitions,
            grid_x: partitions.div_ceil(block_size.max(1)),
            columns,
            tile: 1,
            shared_bytes,
        }
    }

    /// The same launch with `tile` consecutive columns per block.
    pub fn with_tile(self, tile: usize) -> Self {
        LaunchGeometry { tile, ..self }
    }

    /// Grid y-extent: column tiles per partition range.
    pub fn grid_y(&self) -> usize {
        self.columns / self.tile
    }

    /// Warp slots launched per block.
    pub fn warps_per_block(&self, config: &DeviceConfig) -> usize {
        self.block_size / config.warp_size
    }

    /// Live warps in the last block: warps whose first lane still maps to a
    /// partition below `partitions`. Earlier blocks are always full.
    pub fn live_warps_last_block(&self, config: &DeviceConfig) -> usize {
        let covered = (self.grid_x - 1) * self.block_size;
        let remaining = self.partitions - covered;
        remaining.div_ceil(config.warp_size)
    }

    /// Warp slots in the last block that are statically dead: their first
    /// lane's `warp_nnz_start = p·T` is already `≥ work_items`, so the
    /// kernel `break`s before `begin_warp`.
    pub fn dead_warps_last_block(&self, config: &DeviceConfig) -> usize {
        self.warps_per_block(config) - self.live_warps_last_block(config)
    }

    /// The symbolic window of the first statically dead warp, if any:
    /// `(block, warp, nnz_start)` with `nnz_start ≥ work_items` — the
    /// concrete lane/index assignment a refutation reports.
    pub fn first_dead_warp(&self, config: &DeviceConfig) -> Option<(usize, usize, usize)> {
        if self.dead_warps_last_block(config) == 0 {
            return None;
        }
        let block = self.grid_x - 1;
        let warp = self.live_warps_last_block(config);
        let first_partition = block * self.block_size + warp * config.warp_size;
        Some((block, warp, first_partition * self.threadlen))
    }

    /// The smallest candidate block size that covers the same launch in one
    /// block with strictly fewer warp slots, if one exists. Both launches
    /// then run a single block with identical partition→warp mapping and
    /// identical per-warp work; the only cost that differs is the block-level
    /// segmented-scan tree, which grows strictly with the block size — so the
    /// larger block is strictly dominated and can be pruned from a tuning
    /// sweep without changing the winner.
    pub fn dominated_by(&self, candidates: &[usize]) -> Option<usize> {
        candidates
            .iter()
            .copied()
            .filter(|&other| self.partitions <= other && other < self.block_size)
            .min()
    }

    /// Upper bound on functional atomic events across the launch: the
    /// segmented scan resolves every interior segment with an exclusive
    /// write, and each thread (partition) issues at most two non-exclusive
    /// finalizations — its first closed segment (when the partition starts
    /// mid-segment) and its final open segment — per output column.
    pub fn atomic_bound(&self) -> usize {
        2 * self.partitions * self.columns
    }
}

/// Validates the launch shape against hard device limits. Returns the first
/// violated constraint, phrased for a refutation message.
pub fn launch_shape_violation(geometry: &LaunchGeometry, config: &DeviceConfig) -> Option<String> {
    let block = geometry.block_size;
    if block == 0 {
        return Some("block size is zero".to_owned());
    }
    if !block.is_multiple_of(config.warp_size) {
        return Some(format!(
            "block size {block} is not a multiple of the warp size {}",
            config.warp_size
        ));
    }
    if block > config.max_threads_per_block {
        return Some(format!(
            "block size {block} exceeds the device limit of {} threads per block",
            config.max_threads_per_block
        ));
    }
    if geometry.shared_bytes > config.shared_mem_per_sm {
        return Some(format!(
            "block needs {} B of shared memory, the SM has {} B",
            geometry.shared_bytes, config.shared_mem_per_sm
        ));
    }
    if geometry.threadlen == 0 {
        return Some("threadlen is zero".to_owned());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DeviceConfig {
        DeviceConfig::titan_x()
    }

    #[test]
    fn geometry_counts_live_and_dead_warps() {
        // 4000 nnz, threadlen 32 → 125 partitions. Block 1024 launches one
        // block of 32 warps; only ⌈125/32⌉ = 4 are live.
        let g = LaunchGeometry::new(1024, 32, 4000, 8, 256);
        assert_eq!(g.partitions, 125);
        assert_eq!(g.grid_x, 1);
        assert_eq!(g.live_warps_last_block(&config()), 4);
        assert_eq!(g.dead_warps_last_block(&config()), 28);
        let (block, warp, nnz_start) = g.first_dead_warp(&config()).expect("dead warp");
        assert_eq!((block, warp), (0, 4));
        assert!(nnz_start >= 4000);
    }

    #[test]
    fn full_blocks_have_no_dead_warps() {
        // 4096 nnz, threadlen 32 → 128 partitions: block 128 → one full block.
        let g = LaunchGeometry::new(128, 32, 4096, 8, 32);
        assert_eq!(g.dead_warps_last_block(&config()), 0);
        assert!(g.first_dead_warp(&config()).is_none());
    }

    #[test]
    fn dominance_requires_a_single_block_cover() {
        let grid = [32, 64, 128, 256, 512, 1024];
        // 125 partitions: 128 already covers them in one block, so 256, 512
        // and 1024 are all dominated — by 128, the smallest cover.
        let g512 = LaunchGeometry::new(512, 32, 4000, 8, 128);
        assert_eq!(g512.dominated_by(&grid), Some(128));
        let g256 = LaunchGeometry::new(256, 32, 4000, 8, 64);
        assert_eq!(g256.dominated_by(&grid), Some(128));
        // 128 itself is the smallest single-block cover: not dominated.
        let g128 = LaunchGeometry::new(128, 32, 4000, 8, 32);
        assert_eq!(g128.dominated_by(&grid), None);
        // Multi-block launches are never dominated.
        let g64 = LaunchGeometry::new(64, 32, 4000, 8, 16);
        assert_eq!(g64.dominated_by(&grid), None);
    }

    #[test]
    fn launch_shape_rejects_device_violations() {
        let cfg = config();
        let bad_multiple = LaunchGeometry::new(48, 8, 1000, 8, 8);
        assert!(launch_shape_violation(&bad_multiple, &cfg)
            .expect("violation")
            .contains("multiple of the warp size"));
        let too_big = LaunchGeometry::new(2048, 8, 1000, 8, 512);
        assert!(launch_shape_violation(&too_big, &cfg)
            .expect("violation")
            .contains("exceeds the device limit"));
        let ok = LaunchGeometry::new(128, 8, 1000, 8, 32);
        assert!(launch_shape_violation(&ok, &cfg).is_none());
    }

    #[test]
    fn atomic_bound_scales_with_partitions_and_columns() {
        let g = LaunchGeometry::new(128, 16, 1000, 8, 32);
        assert_eq!(g.partitions, 63);
        assert_eq!(g.atomic_bound(), 2 * 63 * 8);
    }
}
