//! Launch geometry of the F-COO kernels, as far as the structural
//! predicates need it.
//!
//! Every kernel in this workspace assigns lane `l` of warp `w` in block
//! `bx` to partition `p(l) = bx·B + w·32 + l`, and partition `p` to the
//! non-zero interval `[p·T, min((p+1)·T, nnz))`. The header's exact integer
//! arithmetic (`nnz`, `threadlen`, `partitions`) then decides the two
//! predicates the tuner and the plan gate apply: whether the launch fits
//! the device ([`launch_shape_violation`]) and whether a smaller block size
//! dominates it ([`LaunchGeometry::dominated_by`]). Everything else a
//! launch costs — warps, atomics, transactions, time — is certified by
//! [`crate::cost`].

use gpu_sim::DeviceConfig;

/// Exact launch geometry of one `(block_size, threadlen)` point.
#[derive(Debug, Clone, Copy)]
pub struct LaunchGeometry {
    /// Threads per block.
    pub block_size: usize,
    /// Non-zeros per thread.
    pub threadlen: usize,
    /// Thread-level partitions: `⌈work_items / threadlen⌉`.
    pub partitions: usize,
    /// Dynamic shared memory per block in bytes: the unified kernel's one
    /// 8-byte carry slot per warp.
    pub shared_bytes: usize,
}

impl LaunchGeometry {
    /// Geometry of a unified-kernel launch over `work_items` non-zeros.
    pub fn new(block_size: usize, threadlen: usize, work_items: usize) -> Self {
        LaunchGeometry {
            block_size,
            threadlen,
            partitions: work_items.div_ceil(threadlen.max(1)),
            shared_bytes: (block_size / 32) * 8,
        }
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
    fn dominance_requires_a_single_block_cover() {
        let grid = [32, 64, 128, 256, 512, 1024];
        // 4000 nnz at threadlen 32 → 125 partitions: 128 already covers
        // them in one block, so 256, 512 and 1024 are all dominated — by
        // 128, the smallest cover.
        let g512 = LaunchGeometry::new(512, 32, 4000);
        assert_eq!(g512.partitions, 125);
        assert_eq!(g512.dominated_by(&grid), Some(128));
        let g256 = LaunchGeometry::new(256, 32, 4000);
        assert_eq!(g256.dominated_by(&grid), Some(128));
        // 128 itself is the smallest single-block cover: not dominated.
        let g128 = LaunchGeometry::new(128, 32, 4000);
        assert_eq!(g128.dominated_by(&grid), None);
        // Multi-block launches are never dominated.
        let g64 = LaunchGeometry::new(64, 32, 4000);
        assert_eq!(g64.dominated_by(&grid), None);
    }

    #[test]
    fn launch_shape_rejects_device_violations() {
        let cfg = config();
        let bad_multiple = LaunchGeometry::new(48, 8, 1000);
        assert!(launch_shape_violation(&bad_multiple, &cfg)
            .expect("violation")
            .contains("multiple of the warp size"));
        let too_big = LaunchGeometry::new(2048, 8, 1000);
        assert!(launch_shape_violation(&too_big, &cfg)
            .expect("violation")
            .contains("exceeds the device limit"));
        let ok = LaunchGeometry::new(128, 8, 1000);
        assert!(launch_shape_violation(&ok, &cfg).is_none());
    }
}
