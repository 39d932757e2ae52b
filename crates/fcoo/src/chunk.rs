//! Partition-aligned chunking of F-COO for out-of-core execution.
//!
//! A tensor whose F-COO footprint exceeds the device budget is split into
//! chunks along **thread-partition boundaries** — never mid-partition — so
//! the `sf`/`partition_first_segment` semantics of the unified kernel
//! survive verbatim inside each chunk. Each [`ChunkDescriptor`] records how
//! the chunk's headers are rebased against the parent format:
//!
//! * A chunk starting at partition `P` (non-zero offset `O = P·threadlen`)
//!   either begins a fresh segment (`bf[O]` set) or continues one that
//!   opened in the previous chunk (`bf[O]` clear — a **carry-in**).
//! * `seg_base` is the parent segment the chunk's local segment 0 maps to:
//!   `partition_first_segment[P]` without carry-in, one less with it (the
//!   carried segment is shared between the two chunks).
//! * Local `partition_first_segment[p − P] = parent[p] − seg_base`; with
//!   carry-in this makes the local counter start at 1 — the carried segment
//!   counts as a head "before" the chunk, exactly like the parent counter
//!   treats heads in earlier partitions.
//!
//! Because a carried segment has no head inside the continuing chunk, the
//! kernel can never take its exclusive-write fast path for it there — the
//! partial sum lands via atomic adds, so seeding the chunk's output row
//! with the running accumulator reproduces the in-core left-to-right fold
//! bit for bit (see `crates/ooc`).

use crate::format::{BitFlags, Fcoo};
use std::sync::Arc;

/// One chunk of a partition-aligned split: where it sits in the parent
/// format and how its headers rebase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDescriptor {
    /// Position of this chunk in the plan (0-based, stream order).
    pub index: usize,
    /// First parent thread-partition covered by the chunk.
    pub partition_start: usize,
    /// Number of parent partitions covered.
    pub partitions: usize,
    /// First parent non-zero covered (`partition_start · threadlen`).
    pub nnz_start: usize,
    /// Non-zeros covered (a full multiple of `threadlen` except for the
    /// final chunk's ragged tail).
    pub nnz: usize,
    /// Parent segment ordinal of the chunk's local segment 0.
    pub seg_base: usize,
    /// Segments the chunk touches, the carried-in segment included.
    pub segments: usize,
    /// True when the chunk's first non-zero continues a segment opened in
    /// the previous chunk.
    pub carry_in: bool,
    /// True when the chunk's last segment continues into the next chunk.
    pub carry_out: bool,
    /// Estimated device bytes of the chunk-local format (the budget the
    /// greedy packer sized against).
    pub format_bytes: usize,
}

/// A complete partition-aligned chunking of one F-COO instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Device-byte budget each chunk was packed against.
    pub budget_bytes: usize,
    /// The chunks, in stream order. Never empty.
    pub chunks: Vec<ChunkDescriptor>,
}

impl ChunkPlan {
    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the plan has no chunks ([`split`] never returns one).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Largest estimated chunk-format footprint in the plan.
    pub fn max_chunk_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.format_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total non-zeros across all chunks (equals the parent's `nnz`).
    pub fn total_nnz(&self) -> usize {
        self.chunks.iter().map(|c| c.nnz).sum()
    }
}

/// Estimated device bytes of a chunk-local format: its
/// [`StorageBreakdown`](crate::format::StorageBreakdown) plus the same
/// 64-byte allocator slack the serve layer's plan accounting uses. The
/// segment coordinates stay on the host, so the chunk's segment count
/// costs no device bytes.
fn chunk_format_bytes(product_modes: usize, nnz: usize, partitions: usize) -> usize {
    crate::format::StorageBreakdown::of(product_modes, nnz, partitions).total_bytes() + 64
}

/// Parent segment ordinal of the first head at or after partition `p`
/// (the segment count past the last partition).
fn first_segment_from(fcoo: &Fcoo, p: usize) -> usize {
    fcoo.partition_first_segment
        .get(p)
        .map_or(fcoo.segments(), |&s| s as usize)
}

/// Splits `fcoo` into partition-aligned chunks whose estimated format
/// footprint fits `budget_bytes`.
///
/// The packer is greedy: each chunk absorbs partitions until the next one
/// would overflow the budget. A chunk always covers at least one partition,
/// so a budget smaller than a single partition's footprint degrades to
/// one-partition chunks rather than failing — the budget is a target, and
/// [`ChunkPlan::max_chunk_bytes`] reports what was actually achieved.
///
/// # Panics
/// If `fcoo` is empty or `budget_bytes` is zero.
pub fn split(fcoo: &Fcoo, budget_bytes: usize) -> ChunkPlan {
    assert!(fcoo.nnz() > 0, "cannot chunk an empty format");
    assert!(budget_bytes > 0, "chunk budget must be positive");
    let nnz = fcoo.nnz();
    let threadlen = fcoo.threadlen;
    let total_partitions = fcoo.partitions();
    let product_modes = fcoo.product_indices.len();
    let mut chunks = Vec::new();
    let mut p = 0usize;
    while p < total_partitions {
        let start_nnz = p * threadlen;
        let carry_in = !fcoo.bf.get(start_nnz);
        let seg_base = fcoo.partition_first_segment[p] as usize - usize::from(carry_in);
        let mut count = 0usize;
        let mut chunk_nnz = 0usize;
        let mut bytes = 0usize;
        while p + count < total_partitions {
            let q = p + count;
            let next_nnz = chunk_nnz + ((q + 1) * threadlen).min(nnz) - q * threadlen;
            let next_bytes = chunk_format_bytes(product_modes, next_nnz, count + 1);
            if count > 0 && next_bytes > budget_bytes {
                break;
            }
            count += 1;
            chunk_nnz = next_nnz;
            bytes = next_bytes;
        }
        let heads = first_segment_from(fcoo, p + count) - first_segment_from(fcoo, p);
        let end_nnz = start_nnz + chunk_nnz;
        let carry_out = end_nnz < nnz && !fcoo.bf.get(end_nnz);
        chunks.push(ChunkDescriptor {
            index: chunks.len(),
            partition_start: p,
            partitions: count,
            nnz_start: start_nnz,
            nnz: chunk_nnz,
            seg_base,
            segments: heads + usize::from(carry_in),
            carry_in,
            carry_out,
            format_bytes: bytes,
        });
        p += count;
    }
    ChunkPlan {
        budget_bytes,
        chunks,
    }
}

/// Materializes the chunk-local F-COO described by `desc`: verbatim slices
/// of the parent's per-non-zero arrays, rebuilt flag words (the slice is
/// not byte-aligned), and rebased `segment_coords` /
/// `partition_first_segment` per the module rules.
///
/// The result is a self-contained [`Fcoo`] the unified kernel runs
/// unchanged; only the interpretation of local segment 0 under `carry_in`
/// needs the accumulator seeding described in `crates/ooc`.
pub fn extract(fcoo: &Fcoo, desc: &ChunkDescriptor) -> Fcoo {
    let lo = desc.nnz_start;
    let hi = lo + desc.nnz;
    let mut bf = BitFlags::new(desc.nnz);
    for i in 0..desc.nnz {
        if fcoo.bf.get(lo + i) {
            bf.set(i);
        }
    }
    let mut sf = BitFlags::new(desc.partitions);
    for p in 0..desc.partitions {
        if bf.get(p * fcoo.threadlen) {
            sf.set(p);
        }
    }
    let partition_first_segment = (0..desc.partitions)
        .map(|p| fcoo.partition_first_segment[desc.partition_start + p] - desc.seg_base as u32)
        .collect();
    Fcoo {
        op: fcoo.op,
        classification: fcoo.classification.clone(),
        shape: fcoo.shape.clone(),
        threadlen: fcoo.threadlen,
        product_indices: fcoo
            .product_indices
            .iter()
            .map(|m| m[lo..hi].to_vec())
            .collect(),
        values: fcoo.values[lo..hi].to_vec(),
        bf,
        sf,
        segment_coords: fcoo
            .segment_coords
            .iter()
            .map(|m| m[desc.seg_base..desc.seg_base + desc.segments].to_vec())
            .collect::<Arc<[_]>>(),
        partition_first_segment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::TensorOp;
    use tensor_core::datasets::{self, DatasetKind};

    fn sample(nnz: usize, threadlen: usize) -> Fcoo {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, 11);
        Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen)
    }

    #[test]
    fn plan_covers_every_partition_exactly_once() {
        let f = sample(3000, 8);
        let plan = split(&f, 4096);
        assert!(plan.len() > 1, "budget should force multiple chunks");
        assert_eq!(plan.total_nnz(), f.nnz());
        let mut next_partition = 0usize;
        let mut next_nnz = 0usize;
        for c in &plan.chunks {
            assert_eq!(c.partition_start, next_partition);
            assert_eq!(c.nnz_start, next_nnz);
            assert!(c.partitions >= 1);
            next_partition += c.partitions;
            next_nnz += c.nnz;
        }
        assert_eq!(next_partition, f.partitions());
        assert_eq!(next_nnz, f.nnz());
    }

    #[test]
    fn carries_link_adjacent_chunks() {
        let f = sample(2500, 8);
        let plan = split(&f, 2048);
        for pair in plan.chunks.windows(2) {
            assert_eq!(pair[0].carry_out, pair[1].carry_in);
            // A carried segment is shared: the next chunk's base points at
            // the carried-out segment, otherwise at the one after.
            let shared = usize::from(pair[0].carry_out);
            assert_eq!(
                pair[1].seg_base,
                pair[0].seg_base + pair[0].segments - shared
            );
        }
        assert!(!plan.chunks[0].carry_in);
        assert!(!plan.chunks[plan.len() - 1].carry_out);
        let last = &plan.chunks[plan.len() - 1];
        assert_eq!(last.seg_base + last.segments, f.segments());
    }

    #[test]
    fn chunks_respect_budget_when_feasible() {
        let f = sample(4000, 8);
        let budget = 8192;
        let plan = split(&f, budget);
        for c in &plan.chunks {
            // Multi-partition chunks must fit; single-partition chunks are
            // the irreducible floor.
            if c.partitions > 1 {
                assert!(c.format_bytes <= budget, "{c:?}");
            }
        }
    }

    #[test]
    fn tiny_budget_degrades_to_single_partition_chunks() {
        let f = sample(600, 8);
        let plan = split(&f, 1);
        assert_eq!(plan.len(), f.partitions());
        for c in &plan.chunks {
            assert_eq!(c.partitions, 1);
        }
        assert_eq!(plan.total_nnz(), f.nnz());
    }

    #[test]
    fn huge_budget_yields_one_chunk() {
        let f = sample(1000, 8);
        let plan = split(&f, usize::MAX);
        assert_eq!(plan.len(), 1);
        let c = &plan.chunks[0];
        assert!(!c.carry_in && !c.carry_out);
        assert_eq!(c.nnz, f.nnz());
        assert_eq!(c.segments, f.segments());
    }

    #[test]
    fn extracted_chunk_is_internally_consistent() {
        let f = sample(2200, 8);
        let plan = split(&f, 3000);
        assert!(plan.len() >= 3);
        for desc in &plan.chunks {
            let c = extract(&f, desc);
            assert_eq!(c.nnz(), desc.nnz);
            assert_eq!(c.partitions(), desc.partitions);
            assert_eq!(c.segments(), desc.segments);
            assert_eq!(c.threadlen, f.threadlen);
            // Heads + carry-in account for every local segment.
            assert_eq!(
                c.bf.count_ones() + usize::from(desc.carry_in),
                desc.segments
            );
            // partition_first_segment is consistent with the local bf, with
            // the carried segment counted as one head before the chunk.
            let mut heads = u32::from(desc.carry_in);
            for p in 0..c.partitions() {
                assert_eq!(c.partition_first_segment[p], heads);
                assert_eq!(c.sf.get(p), c.bf.get(p * c.threadlen));
                let start = p * c.threadlen;
                let end = ((p + 1) * c.threadlen).min(c.nnz());
                for nz in start..end {
                    if c.bf.get(nz) {
                        heads += 1;
                    }
                }
            }
            assert_eq!(heads as usize, desc.segments);
            // Per-non-zero payloads are verbatim slices of the parent.
            assert_eq!(
                c.values[..],
                f.values[desc.nnz_start..desc.nnz_start + desc.nnz]
            );
            // Segment coordinates are the parent's, shifted by seg_base.
            for (m, coords) in c.segment_coords.iter().enumerate() {
                assert_eq!(
                    coords[..],
                    f.segment_coords[m][desc.seg_base..desc.seg_base + desc.segments]
                );
            }
        }
    }

    #[test]
    fn format_bytes_are_the_extracted_storage_plus_allocator_slack() {
        // The chunk byte rule the out-of-core path reserves against: each
        // descriptor's estimate equals the extracted chunk's storage plus
        // the 64-byte slack, for every op, threadlen and budget — ragged
        // tails (1003 non-zeros never divide evenly) and one-partition
        // chunks included.
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1003, 11);
        for op in [
            TensorOp::SpTtm { mode: 1 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 2 },
        ] {
            for threadlen in [1, 8, 24, 64] {
                let f = Fcoo::from_coo(&tensor, op, threadlen);
                for budget in [1, 700, 4096, usize::MAX] {
                    for desc in &split(&f, budget).chunks {
                        assert_eq!(
                            desc.format_bytes,
                            extract(&f, desc).storage().total_bytes() + 64,
                            "{op:?} T{threadlen} budget {budget} chunk {}",
                            desc.index
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_nnz_partition_tails_chunk_cleanly() {
        // threadlen 1: every partition holds exactly one non-zero, the
        // degenerate tail the proptests also exercise.
        let (tensor, _) = datasets::generate(DatasetKind::Uniform, 97, 5);
        let f = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 1);
        let plan = split(&f, 256);
        assert!(plan.len() > 1);
        assert_eq!(plan.total_nnz(), f.nnz());
        for desc in &plan.chunks {
            let c = extract(&f, desc);
            assert_eq!(c.nnz(), desc.nnz);
            assert_eq!(
                c.bf.count_ones() + usize::from(desc.carry_in),
                desc.segments
            );
        }
    }
}
